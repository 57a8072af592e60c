package ctlproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reg := Register{MboxID: "ids-1", Name: "edge IDS", Type: "ids", Stateful: true, ReadOnly: true, StopAfter: 4096}
	if err := WriteMsg(&buf, TypeRegister, 7, reg); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeRegister || env.Seq != 7 {
		t.Errorf("envelope = %+v", env)
	}
	var got Register
	if err := env.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reg) {
		t.Errorf("decoded %+v, want %+v", got, reg)
	}
}

func TestBinaryPatternsSurviveJSON(t *testing.T) {
	var buf bytes.Buffer
	msg := AddPatterns{
		MboxID: "av-1",
		Patterns: []PatternDef{
			{RuleID: 1, Content: []byte{0x00, 0xff, 0x1f, 0x8b, '"', '\\'}},
			{RuleID: 2, Regex: `evil\d+`},
		},
	}
	if err := WriteMsg(&buf, TypeAddPatterns, 1, msg); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got AddPatterns
	if err := env.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Errorf("decoded %+v, want %+v", got, msg)
	}
}

func TestMultipleMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 5; i++ {
		if err := WriteMsg(&buf, TypeAck, i, Ack{AckSeq: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		env, err := ReadMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var a Ack
		if err := env.Decode(&a); err != nil {
			t.Fatal(err)
		}
		if a.AckSeq != i {
			t.Errorf("ack %d out of order: %d", i, a.AckSeq)
		}
	}
	if _, err := ReadMsg(&buf); err != io.EOF {
		t.Errorf("after drain: err = %v, want EOF", err)
	}
}

func TestReadMsgMalformed(t *testing.T) {
	// Truncated header.
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Error("truncated header accepted")
	}
	// Length longer than body.
	var b bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	b.Write(hdr[:])
	b.WriteString(`{"type":"ack"}`)
	if _, err := ReadMsg(&b); err == nil {
		t.Error("truncated body accepted")
	}
	// Oversized claim.
	binary.BigEndian.PutUint32(hdr[:], MaxMessageLen+1)
	if _, err := ReadMsg(bytes.NewReader(hdr[:])); err != ErrMessageTooLarge {
		t.Errorf("oversize err = %v", err)
	}
	// Invalid JSON.
	payload := []byte("{not json")
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := ReadMsg(bytes.NewReader(append(hdr[:], payload...))); err == nil {
		t.Error("bad JSON accepted")
	}
	// Valid JSON, missing type.
	payload = []byte(`{"seq":1}`)
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := ReadMsg(bytes.NewReader(append(hdr[:], payload...))); err != ErrBadEnvelope {
		t.Error("typeless envelope accepted")
	}
}

func TestOverNetPipe(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	done := make(chan error, 1)
	go func() {
		msg := InstanceInit{InstanceID: "dpi-1"}
		head := AppendInitHead(nil, &msg)
		section := AppendInitSection(nil, []ProfileDef{{
			Set: 0, Mboxes: []string{"ids-1"}, Patterns: []PatternDef{{RuleID: 0, Content: []byte("sig")}},
		}}, []ChainDef{{Tag: 1, Members: []string{"ids-1"}}})
		done <- WriteBinary(c1, TypeInstanceInit, 3, head, section)
	}()
	env, err := ReadMsg(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeInstanceInit || env.Seq != 3 {
		t.Errorf("envelope %s seq %d", env.Type, env.Seq)
	}
	init, err := DecodeInstanceInit(env.Body)
	if err != nil {
		t.Fatal(err)
	}
	if init.InstanceID != "dpi-1" || len(init.Profiles) != 1 || init.Chains[0].Tag != 1 ||
		string(init.Profiles[0].Patterns[0].Content) != "sig" {
		t.Errorf("init = %+v", init)
	}
}

func TestEnvelopeRoundTripProperty(t *testing.T) {
	f := func(seq uint64, instID string, pkts, bts uint64) bool {
		var buf bytes.Buffer
		tel := Telemetry{InstanceID: instID, Packets: pkts, Bytes: bts}
		if err := WriteMsg(&buf, TypeTelemetry, seq, tel); err != nil {
			return false
		}
		env, err := ReadMsg(&buf)
		if err != nil || env.Seq != seq || env.Type != TypeTelemetry {
			return false
		}
		var got Telemetry
		return env.Decode(&got) == nil && reflect.DeepEqual(got, tel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
