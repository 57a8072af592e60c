package netsim

import (
	"testing"
	"time"

	"dpiservice/internal/packet"
)

func chaosPair(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	n := NewNetwork()
	t.Cleanup(n.Stop)
	a := NewHost("a", packet.MAC{2, 0, 0, 0, 0, 1}, packet.IP4{10, 0, 0, 1})
	b := NewHost("b", packet.MAC{2, 0, 0, 0, 0, 2}, packet.IP4{10, 0, 0, 2})
	for _, h := range []*Host{a, b} {
		if err := n.AddNode(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Connect(a, b, LinkOpts{}); err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

func countFrames(h *Host, settle time.Duration) int {
	got := 0
	for {
		select {
		case <-h.Inbox():
			got++
		case <-time.After(settle):
			return got
		}
	}
}

func TestChaosPartitionAndHeal(t *testing.T) {
	n, a, b := chaosPair(t)
	n.SetLinkFault("a", "b", Fault{Partition: true})
	for i := 0; i < 5; i++ {
		a.Send([]byte{byte(i)})
	}
	n.Flush(time.Second)
	if got := countFrames(b, 20*time.Millisecond); got != 0 {
		t.Fatalf("partitioned link delivered %d frames", got)
	}
	if s := n.ChaosStats(); s.Dropped != 5 {
		t.Errorf("dropped = %d, want 5", s.Dropped)
	}
	// Reverse direction is unaffected.
	b.Send([]byte("reverse"))
	if got := countFrames(a, 50*time.Millisecond); got != 1 {
		t.Fatalf("reverse direction got %d frames", got)
	}
	// Healing restores delivery.
	n.ClearLinkFault("a", "b")
	a.Send([]byte("healed"))
	if got := countFrames(b, 50*time.Millisecond); got != 1 {
		t.Fatalf("healed link got %d frames", got)
	}
}

func TestChaosDropProbDeterministic(t *testing.T) {
	run := func() (delivered int, dropped uint64) {
		n, a, b := chaosPair(t)
		n.SetChaosSeed(42)
		n.SetLinkFault("a", "b", Fault{DropProb: 0.5})
		for i := 0; i < 100; i++ {
			a.Send([]byte{byte(i)})
		}
		n.Flush(time.Second)
		return countFrames(b, 20*time.Millisecond), n.ChaosStats().Dropped
	}
	d1, drop1 := run()
	d2, drop2 := run()
	if d1 != d2 || drop1 != drop2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", d1, drop1, d2, drop2)
	}
	if d1 == 0 || d1 == 100 {
		t.Errorf("drop prob 0.5 delivered %d/100", d1)
	}
	if uint64(d1)+drop1 != 100 {
		t.Errorf("delivered %d + dropped %d != 100", d1, drop1)
	}
}

// A MaxSize fault is a black hole for long frames only, and spends no
// RNG draws on them: the frames that fit meet the same seeded drop
// schedule whether or not long ones are interleaved.
func TestChaosMaxSizeBlackHole(t *testing.T) {
	run := func(interleave bool) (delivered int, s ChaosStats) {
		n, a, b := chaosPair(t)
		n.SetChaosSeed(42)
		n.SetLinkFault("a", "b", Fault{DropProb: 0.3, MaxSize: 100})
		for i := 0; i < 50; i++ {
			if interleave {
				a.Send(make([]byte, 101))
			}
			a.Send(make([]byte, 100))
		}
		n.Flush(time.Second)
		return countFrames(b, 20*time.Millisecond), n.ChaosStats()
	}
	plain, ps := run(false)
	mixed, ms := run(true)
	if ps.Oversize != 0 || ms.Oversize != 50 {
		t.Errorf("oversize = %d without long frames, %d with 50; want 0 and 50", ps.Oversize, ms.Oversize)
	}
	if plain != mixed || ps.Dropped != ms.Dropped {
		t.Errorf("frames that fit: %d delivered/%d dropped alone, %d/%d next to long frames", plain, ps.Dropped, mixed, ms.Dropped)
	}
	if plain == 0 || plain == 50 {
		t.Errorf("drop prob 0.3 delivered %d/50", plain)
	}
}

func TestChaosDuplication(t *testing.T) {
	n, a, b := chaosPair(t)
	n.SetChaosSeed(7)
	n.SetLinkFault("a", "b", Fault{DupProb: 1.0})
	a.Send([]byte("twice"))
	n.Flush(time.Second)
	if got := countFrames(b, 20*time.Millisecond); got != 2 {
		t.Fatalf("delivered %d frames, want 2", got)
	}
	if s := n.ChaosStats(); s.Duplicated != 1 {
		t.Errorf("duplicated = %d", s.Duplicated)
	}
}

func TestChaosExtraLatency(t *testing.T) {
	n, a, b := chaosPair(t)
	n.SetLinkFault("a", "b", Fault{ExtraLatency: 30 * time.Millisecond})
	start := time.Now()
	a.Send([]byte("slow"))
	select {
	case <-b.Inbox():
	case <-time.After(time.Second):
		t.Fatal("frame never arrived")
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Errorf("delivered after %v, want >= 30ms", el)
	}
	if s := n.ChaosStats(); s.Delayed != 1 {
		t.Errorf("delayed = %d", s.Delayed)
	}
}

func TestChaosCrashRestartNode(t *testing.T) {
	n, a, b := chaosPair(t)
	if n.NodeDown("b") {
		t.Fatal("fresh node reported down")
	}
	n.CrashNode("b")
	if !n.NodeDown("b") {
		t.Fatal("crashed node reported up")
	}
	// Frames toward and from the crashed node die.
	a.Send([]byte("to the dead"))
	b.Send([]byte("from the dead"))
	n.Flush(time.Second)
	if got := countFrames(b, 20*time.Millisecond); got != 0 {
		t.Fatalf("crashed node received %d frames", got)
	}
	if got := countFrames(a, 20*time.Millisecond); got != 0 {
		t.Fatalf("crashed node transmitted %d frames", got)
	}
	n.RestartNode("b")
	a.Send([]byte("back"))
	if got := countFrames(b, 50*time.Millisecond); got != 1 {
		t.Fatalf("restarted node got %d frames", got)
	}
}
