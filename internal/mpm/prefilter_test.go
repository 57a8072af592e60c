package mpm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dpiservice/internal/patterns"
	"dpiservice/internal/traffic"
)

// streamScan records the raw emit stream (order-preserving, unfiltered)
// and the final state — the strictest equivalence observation.
func streamScan(a Automaton, data []byte, state State, active uint64) ([]matchRec, State) {
	var ms []matchRec
	end := a.Scan(data, state, active, collect(&ms, AllSets))
	return ms, end
}

func buildPrefilterPair(t testing.TB, sets ...[]string) (*ACFull, *PrefilteredAC) {
	t.Helper()
	b := NewBuilder()
	for i, set := range sets {
		if err := b.AddSet(i, set); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := b.BuildPrefiltered()
	if err != nil {
		t.Fatal(err)
	}
	return plain, pf
}

// injectInto plants patterns at random positions of the text.
func injectInto(rng *rand.Rand, text []byte, pats []string, count int) {
	for i := 0; i < count; i++ {
		p := pats[rng.Intn(len(pats))]
		if len(p) >= len(text) {
			continue
		}
		copy(text[rng.Intn(len(text)-len(p)):], p)
	}
}

func TestPrefilteredEquivalenceSnortlike(t *testing.T) {
	set := patterns.SnortLike(300, 1).Strings()
	plain, pf := buildPrefilterPair(t, set)
	if pf.Fallback() {
		t.Fatal("snortlike set should not compile to fallback")
	}
	if pf.Stride() != 4 {
		t.Fatalf("stride = %d, want 4 (minLen >= 7)", pf.Stride())
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(4000)
		text := randomText(rng, n, 80)
		injectInto(rng, text, set, rng.Intn(6))
		wantMs, wantSt := streamScan(plain, text, plain.Start(), AllSets)
		gotMs, gotSt := streamScan(pf, text, pf.Start(), AllSets)
		if !equalMatches(wantMs, gotMs) {
			t.Fatalf("trial %d (n=%d): prefiltered stream diverges: got %d matches, want %d",
				trial, n, len(gotMs), len(wantMs))
		}
		if gotSt != wantSt {
			t.Fatalf("trial %d: final state %d, want %d", trial, gotSt, wantSt)
		}
	}
}

func TestPrefilteredEquivalenceStreaming(t *testing.T) {
	set := patterns.SnortLike(200, 3).Strings()
	plain, pf := buildPrefilterPair(t, set)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		text := randomText(rng, 2000+rng.Intn(3000), 70)
		injectInto(rng, text, set, 4)
		// Fragment the stream at random cut points, including cuts in
		// the middle of planted patterns, and carry state across.
		var cuts []int
		for pos := 0; pos < len(text); {
			adv := 1 + rng.Intn(900)
			pos += adv
			if pos > len(text) {
				pos = len(text)
			}
			cuts = append(cuts, pos)
		}
		var wantMs, gotMs []matchRec
		wantSt, gotSt := plain.Start(), pf.Start()
		prev := 0
		var st PrefilterStats
		for _, cut := range cuts {
			frag := text[prev:cut]
			wantSt = plain.Scan(frag, wantSt, AllSets, collect(&wantMs, AllSets))
			gotSt = pf.ScanStats(frag, gotSt, AllSets, collect(&gotMs, AllSets), &st)
			if gotSt != wantSt {
				t.Fatalf("trial %d: state diverged after fragment ending at %d", trial, cut)
			}
			prev = cut
		}
		if !equalMatches(wantMs, gotMs) {
			t.Fatalf("trial %d: streaming match stream diverges (%d vs %d)", trial, len(gotMs), len(wantMs))
		}
	}
}

func TestPrefilteredEquivalenceClamavlike(t *testing.T) {
	set := patterns.ClamAVLike(250, 5).Strings()
	plain, pf := buildPrefilterPair(t, set)
	if pf.Fallback() {
		t.Fatal("clamavlike(250) should not fall back")
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		text := make([]byte, 500+rng.Intn(2000))
		rng.Read(text)
		injectInto(rng, text, set, rng.Intn(5))
		wantMs, wantSt := streamScan(plain, text, plain.Start(), AllSets)
		gotMs, gotSt := streamScan(pf, text, pf.Start(), AllSets)
		if !equalMatches(wantMs, gotMs) || gotSt != wantSt {
			t.Fatalf("trial %d: binary-set equivalence broken", trial)
		}
	}
}

func TestPrefilteredStride2(t *testing.T) {
	// Patterns of length 5..6 select the stride-2 probe loop.
	set := []string{"ABCDE", "qwert", "zxcvb", "hello!", "workd5", "\x01\x02\x03\x04\x05"}
	plain, pf := buildPrefilterPair(t, set)
	if pf.Fallback() || pf.Stride() != 2 {
		t.Fatalf("stride = %d fallback = %v, want stride 2", pf.Stride(), pf.Fallback())
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		text := randomText(rng, 30+rng.Intn(1500), 60)
		injectInto(rng, text, set, rng.Intn(4))
		wantMs, wantSt := streamScan(plain, text, plain.Start(), AllSets)
		gotMs, gotSt := streamScan(pf, text, pf.Start(), AllSets)
		if !equalMatches(wantMs, gotMs) || gotSt != wantSt {
			t.Fatalf("trial %d: stride-2 equivalence broken", trial)
		}
	}
}

func TestPrefilteredShortPatternFallback(t *testing.T) {
	// The paper's example sets contain single-byte patterns — no usable
	// fast window exists, so compilation must fall back to plain AC
	// while remaining exactly correct.
	b := paperBuilder(t)
	pf, err := b.BuildPrefiltered()
	if err != nil {
		t.Fatal(err)
	}
	if !pf.Fallback() {
		t.Fatal("single-byte patterns must compile to fallback mode")
	}
	plain, err := paperBuilder(t).BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("XEDAECDBCABBE")
	wantMs, wantSt := streamScan(plain, data, plain.Start(), AllSets)
	var st PrefilterStats
	var gotMs []matchRec
	gotSt := pf.ScanStats(data, pf.Start(), AllSets, collect(&gotMs, AllSets), &st)
	if !equalMatches(wantMs, gotMs) || gotSt != wantSt {
		t.Fatal("fallback scan diverges from plain AC")
	}
	if st.PlainScans != 1 {
		t.Fatalf("PlainScans = %d, want 1", st.PlainScans)
	}
}

func TestPrefilteredSaturationFallback(t *testing.T) {
	// A huge random binary set flags more buckets than the saturation
	// bound; the compiler must notice and fall back.
	set := patterns.ClamAVLike(8000, 9).Strings()
	b := NewBuilder()
	if err := b.AddSet(0, set); err != nil {
		t.Fatal(err)
	}
	pf, err := b.BuildPrefiltered()
	if err != nil {
		t.Fatal(err)
	}
	if !pf.Fallback() {
		t.Fatalf("8000 random patterns flag ~%d buckets; expected saturation fallback", 8000*4)
	}
	if pf.Stride() != 0 || pf.GramCount() == 0 {
		t.Fatalf("fallback metadata inconsistent: stride %d grams %d", pf.Stride(), pf.GramCount())
	}
}

func TestPrefilteredAdversarialBailout(t *testing.T) {
	set := patterns.SnortLike(150, 21).Strings()
	plain, pf := buildPrefilterPair(t, set)
	rng := rand.New(rand.NewSource(23))
	// All-match payload: back-to-back patterns. The hit budget must
	// trip, the scan must be rescanned plain, and the result must stay
	// identical.
	var sb strings.Builder
	for sb.Len() < 3000 {
		sb.WriteString(set[rng.Intn(len(set))])
	}
	data := []byte(sb.String())
	var st PrefilterStats
	var gotMs []matchRec
	gotSt := pf.ScanStats(data, pf.Start(), AllSets, collect(&gotMs, AllSets), &st)
	wantMs, wantSt := streamScan(plain, data, plain.Start(), AllSets)
	if !equalMatches(wantMs, gotMs) || gotSt != wantSt {
		t.Fatal("bailout scan diverges from plain AC")
	}
	if st.Bailouts != 1 {
		t.Fatalf("Bailouts = %d, want 1 on an all-match payload", st.Bailouts)
	}
}

func TestPrefilteredStatsLowMatch(t *testing.T) {
	set := patterns.SnortLike(300, 1).Strings()
	_, pf := buildPrefilterPair(t, set)
	rng := rand.New(rand.NewSource(29))
	text := randomText(rng, 64<<10, 90)
	var st PrefilterStats
	pf.ScanStats(text, pf.Start(), AllSets, func(refs []PatternRef, end int) {}, &st)
	if st.Probes == 0 {
		t.Fatal("no probes recorded")
	}
	if st.Bailouts != 0 || st.PlainScans != 0 {
		t.Fatalf("low-match text should not bail (bail=%d plain=%d)", st.Bailouts, st.PlainScans)
	}
	// The point of the filter: on innocent traffic the exact automaton
	// touches a small fraction of the payload.
	if frac := float64(st.ConfirmedBytes) / float64(len(text)); frac > 0.5 {
		t.Fatalf("confirm fraction %.2f, want < 0.5 on random text", frac)
	}
}

func TestPrefilteredFind(t *testing.T) {
	set := patterns.SnortLike(100, 31).Strings()
	plain, pf := buildPrefilterPair(t, set)
	rng := rand.New(rand.NewSource(37))
	text := randomText(rng, 5000, 80)
	injectInto(rng, text, set, 8)
	var got []matchRec
	pf.Find(text, collect(&got, AllSets))
	want, _ := streamScan(plain, text, plain.Start(), AllSets)
	if !equalMatches(want, got) {
		t.Fatal("Find diverges from a whole-buffer scan")
	}
}

func TestPrefilteredMultiSetMasking(t *testing.T) {
	setA := patterns.SnortLike(120, 41).Strings()
	setB := patterns.SnortLike(120, 43).Strings()
	plain, pf := buildPrefilterPair(t, setA, setB)
	rng := rand.New(rand.NewSource(47))
	for _, active := range []uint64{SetBit(0), SetBit(1), SetBit(0) | SetBit(1)} {
		text := randomText(rng, 3000, 80)
		injectInto(rng, text, setA, 3)
		injectInto(rng, text, setB, 3)
		wantMs, wantSt := streamScan(plain, text, plain.Start(), active)
		gotMs, gotSt := streamScan(pf, text, pf.Start(), active)
		if !equalMatches(wantMs, gotMs) || gotSt != wantSt {
			t.Fatalf("active=%#x: masked equivalence broken", active)
		}
	}
}

// TestPrefilterGoldenCompile pins the compiler's fast-window selection
// and table contents for a fixed set, so an unintended change to the
// byte-score model, hashing or window selection is visible in review as
// a golden-value diff.
func TestPrefilterGoldenCompile(t *testing.T) {
	b := NewBuilder()
	fixed := []string{
		"GET /admin/config",
		"User-Agent: evilbot",
		"\x90\x90\x90\x90shellcode",
		"SELECT * FROM users",
		"document.cookie",
	}
	if err := b.AddSet(0, fixed); err != nil {
		t.Fatal(err)
	}
	pf, err := b.BuildPrefiltered()
	if err != nil {
		t.Fatal(err)
	}
	if pf.Fallback() || pf.Stride() != 4 {
		t.Fatalf("fixed set: stride %d fallback %v, want stride 4", pf.Stride(), pf.Fallback())
	}
	wantOffs := []int{0, 0, 0, 1, 2}
	gotOffs := pf.WindowOffsets()
	if len(gotOffs) != len(wantOffs) {
		t.Fatalf("window offsets: got %v, want %v", gotOffs, wantOffs)
	}
	for i := range wantOffs {
		if gotOffs[i] != wantOffs[i] {
			t.Fatalf("window offsets: got %v, want %v", gotOffs, wantOffs)
		}
	}
	const wantGrams = 20
	if pf.GramCount() != wantGrams {
		t.Fatalf("gram count: got %d, want %d", pf.GramCount(), wantGrams)
	}
	const wantDigest = uint64(0xce7bc351db99acf4)
	if d := pf.TableDigest(); d != wantDigest {
		t.Fatalf("table digest: got %#x, want %#x", d, wantDigest)
	}
}

// BenchmarkLanesVsPrefilter compares the prefilter with the scan the
// deployed instance runs, on the dpibench corpora (the low-match HTTP
// mix and the attack mix, 1 MiB each, 64 of the set's patterns
// injected) at 400 and 4 356 Snort-like patterns: a solo ACFull.Scan,
// ACFull.ScanLanes over runs of 13 packets (bench.ScanRun) and a solo
// PrefilteredAC.Scan. One op is one pass over the corpus.
func BenchmarkLanesVsPrefilter(b *testing.B) {
	emit := func(refs []PatternRef, end int) {}
	for _, n := range []int{400, patterns.SnortFullSize} {
		set := patterns.SnortLike(n, 1)
		plain, pf := buildPrefilterPair(b, set.Strings())
		for _, mix := range []struct {
			name string
			mix  traffic.Mix
		}{{"low-match", traffic.HTTPMix}, {"attack", traffic.AttackMix}} {
			corpus := traffic.NewGenerator(traffic.Config{
				Seed: 8, Mix: mix.mix, MatchFraction: 0.08, InjectPatterns: set.Strings()[:64],
			}).Corpus(1 << 20)
			var total int64
			for _, p := range corpus {
				total += int64(len(p))
			}
			lanes := make([]Lane, len(corpus))
			for _, m := range []struct {
				name string
				pass func()
			}{
				{"solo", func() {
					for _, p := range corpus {
						plain.Scan(p, plain.Start(), AllSets, emit)
					}
				}},
				{"lanes", func() {
					for j, p := range corpus {
						lanes[j] = Lane{Data: p, State: plain.Start(), Active: AllSets, Emit: emit}
					}
					for lo := 0; lo < len(lanes); lo += 13 {
						plain.ScanLanes(lanes[lo:min(lo+13, len(lanes))])
					}
				}},
				{"prefilter", func() {
					for _, p := range corpus {
						pf.Scan(p, pf.Start(), AllSets, emit)
					}
				}},
			} {
				b.Run(fmt.Sprintf("%d/%s/%s", n, mix.name, m.name), func(b *testing.B) {
					b.SetBytes(total)
					for i := 0; i < b.N; i++ {
						m.pass()
					}
				})
			}
		}
	}
}
