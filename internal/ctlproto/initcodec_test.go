package ctlproto

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"dpiservice/internal/obs"
)

// sampleInit exercises every field: binary content (NUL, high bytes,
// quotes), each content modifier, a regex, both profile flags, a stop
// condition, a profile without patterns and a chain listing two
// members.
func sampleInit() InstanceInit {
	return InstanceInit{
		InstanceID: "dpi-7", Compact: true, Version: 42,
		WireKey: 0x0123456789abcdef, WireToken: 0xfedcba9876543210,
		Profiles: []ProfileDef{
			{Set: 0, Name: "ids", Mboxes: []string{"ids-1", "ids-2"}, Stateful: true, StopAfter: 4096,
				Patterns: []PatternDef{
					{RuleID: 1, Content: []byte("cmd.exe")},
					{RuleID: 2, Content: []byte("GET"), Modifiers: Modifiers{NoCase: true, Depth: 3}},
					{RuleID: 300, Content: []byte{0x00, 0xff, 0x1f, 0x8b, '"', '\\'}},
					{RuleID: 301, Content: []byte("%PDF"), Modifiers: Modifiers{Offset: 1 << 16}},
					{RuleID: 1 << 20, Regex: `evil\d+`},
				}},
			{Set: 1, Name: "l7fw", ReadOnly: true},
		},
		Chains: []ChainDef{{Tag: 1, Members: []string{"ids-1", "l7fw"}}, {Tag: 65535, Members: []string{"ids-2"}}},
	}
}

func TestInstanceInitRoundTrip(t *testing.T) {
	for _, m := range []InstanceInit{{}, sampleInit()} {
		b := AppendInstanceInit(nil, &m)
		got, err := DecodeInstanceInit(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("decoded %+v, want %+v", got, m)
		}
		if again := AppendInstanceInit(nil, &got); !bytes.Equal(again, b) {
			t.Errorf("re-encoding differs:\n%x\n%x", again, b)
		}
		// Head and section written apart are the same bytes.
		split := AppendInitSection(AppendInitHead(nil, &m), m.Profiles, m.Chains)
		if !bytes.Equal(split, b) {
			t.Error("head + section differs from the whole encoding")
		}
	}
}

// TestDecodeInstanceInitAliasesContent: pattern contents are views of
// the message buffer, capped so an append cannot run into the next
// field.
func TestDecodeInstanceInitAliasesContent(t *testing.T) {
	m := sampleInit()
	b := AppendInstanceInit(nil, &m)
	got, err := DecodeInstanceInit(b)
	if err != nil {
		t.Fatal(err)
	}
	c := got.Profiles[0].Patterns[0].Content
	i := bytes.Index(b, []byte("cmd.exe"))
	if i < 0 || &c[0] != &b[i] {
		t.Fatal("content is a copy, not a view of the message")
	}
	if cap(c) != len(c) {
		t.Errorf("content cap %d, len %d", cap(c), len(c))
	}
}

// modified encodes a profile of a content pattern and a regex whose
// one modifier entry is the given bytes.
func modified(entry ...byte) []byte {
	b := AppendInitHead(nil, &InstanceInit{})
	b = append(b, 1, 0, 0, 0, 0, 0, 2) // one profile, two patterns:
	b = append(b, 1, 2<<1, 'a', 'b')   // rule 1, content "ab"
	b = append(b, 2, 2<<1|patRegex, 'c', 'd')
	b = append(b, 1) // one modifier entry
	return append(append(b, entry...), 0)
}

func TestDecodeInstanceInitRejects(t *testing.T) {
	m := sampleInit()
	good := AppendInstanceInit(nil, &m)
	// Every strict prefix is truncated.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeInstanceInit(good[:n]); !errors.Is(err, ErrBadEnvelope) {
			t.Fatalf("prefix of %d bytes: err = %v", n, err)
		}
	}
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	head := len(AppendInitHead(nil, &m))
	for name, b := range map[string][]byte{
		"magic":         mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"format":        mutate(func(b []byte) []byte { b[4] = initFormat + 1; return b }),
		"head flags":    mutate(func(b []byte) []byte { b[5] |= 0x80; return b }),
		"trailing":      append(append([]byte(nil), good...), 0),
		"profile count": mutate(func(b []byte) []byte { b[head] = 0x7f; return b }),
		"overlong": append(AppendInitHead(nil, &InstanceInit{}),
			0x80, 0x00, // zero profiles, in two bytes
			0x00),
		"empty regex": append(AppendInitHead(nil, &InstanceInit{}),
			1,                // one profile:
			0, 0, 0, 0, 0, 1, // set 0, name "", flags, stop, no mboxes, one pattern:
			5, patRegex, // rule 5, a regex of length 0
			0, 0), // no modifiers, no chains
		"empty modifier":    modified(0, 0, 0, 0),
		"modifier flags":    modified(0, 0x80|modNoCase, 0, 0),
		"modifier index":    modified(2, modNoCase, 0, 0),
		"modifier on regex": modified(1, modNoCase, 0, 0),
		"modifier order": append(AppendInitHead(nil, &InstanceInit{}),
			1, 0, 0, 0, 0, 0, 2, // one profile, two patterns:
			1, 2<<1, 'a', 'b', 2, 2<<1, 'c', 'd', // rules 1 and 2, "ab" and "cd"
			2, 1, modNoCase, 0, 0, 0, modNoCase, 0, 0, // modifiers of pattern 1, then 0
			0),
	} {
		if _, err := DecodeInstanceInit(b); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("%s: err = %v, want ErrBadEnvelope", name, err)
		}
	}
	if _, err := DecodeInstanceInit(modified(0, modNoCase, 0, 0)); err != nil {
		t.Errorf("well-formed modifier entry: %v", err)
	}
}

// TestWriteBinary: a binary message shares a stream with JSON ones,
// keeps its type and seq, and counts in the ctlproto metrics.
func TestWriteBinary(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)
	m := sampleInit()
	var buf bytes.Buffer
	if err := WriteMsg(&buf, TypeAck, 1, Ack{AckSeq: 1}); err != nil {
		t.Fatal(err)
	}
	mark := buf.Len()
	if err := WriteBinary(&buf, TypeInstanceInit, 9, AppendInitHead(nil, &m), AppendInitSection(nil, m.Profiles, m.Chains)); err != nil {
		t.Fatal(err)
	}
	binLen := buf.Len() - mark
	if err := WriteMsg(&buf, TypeAck, 2, Ack{AckSeq: 2}); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for buf.Len() > 0 {
		env, err := ReadMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, env.Seq)
		if env.Type == TypeInstanceInit {
			got, err := DecodeInstanceInit(env.Body)
			if err != nil || !reflect.DeepEqual(got, m) {
				t.Errorf("binary body: %+v, %v", got, err)
			}
		}
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 9, 2}) {
		t.Errorf("seqs %v", seqs)
	}
	// A binary envelope too short for its type and seq is malformed.
	buf.Write([]byte{0, 0, 0, 5, binaryMark, 4, 'a', 'c', 'k', 0})
	if _, err := ReadMsg(&buf); !errors.Is(err, ErrBadEnvelope) {
		t.Errorf("truncated binary envelope: err = %v", err)
	}

	s := reg.Snapshot()
	if got, _ := s.Counter("ctlproto.msg.instance_init"); got != 2 {
		t.Errorf("ctlproto.msg.instance_init = %d, want 2 (one write, one read)", got)
	}
	if w, _ := s.Counter("ctlproto.bytes_written"); w != uint64(mark+binLen+mark) {
		t.Errorf("bytes_written = %d, want %d", w, mark+binLen+mark)
	}
}

// FuzzInstanceInit: arbitrary bytes either fail with ErrBadEnvelope or
// decode to a value that re-encodes to exactly those bytes, and the
// decoder allocates in proportion to the input, never by a count the
// input claims.
func FuzzInstanceInit(f *testing.F) {
	m := sampleInit()
	f.Add(AppendInstanceInit(nil, &m))
	f.Add(AppendInstanceInit(nil, &InstanceInit{}))
	f.Add(AppendInstanceInit(nil, &InstanceInit{Profiles: []ProfileDef{{Patterns: []PatternDef{{Regex: "a"}}}}}))
	f.Add(AppendInstanceInit(nil, &InstanceInit{Profiles: []ProfileDef{{Patterns: []PatternDef{
		{Content: []byte("a")}, {Content: []byte("b"), Modifiers: Modifiers{NoCase: true, Offset: 3, Depth: 200}}}}}}))
	f.Add([]byte(initMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := DecodeInstanceInit(b)
		runtime.ReadMemStats(&after)
		// The slack covers what other goroutines of the test process
		// allocate meanwhile; a count taken on trust would cost far more.
		if limit := 32*uint64(len(b)) + 64<<10; after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(b), after.TotalAlloc-before.TotalAlloc, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrBadEnvelope) {
				t.Fatalf("error %v does not wrap ErrBadEnvelope", err)
			}
			return
		}
		if again := AppendInstanceInit(nil, &got); !bytes.Equal(again, b) {
			t.Fatalf("decoded then re-encoded:\n%x\nwant\n%x", again, b)
		}
	})
}
