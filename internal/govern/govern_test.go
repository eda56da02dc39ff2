package govern

import (
	"errors"
	"testing"
	"time"
)

func TestAdmissionBasic(t *testing.T) {
	a := NewAdmission(10)
	ok, _ := a.TryAcquire(6)
	if !ok {
		t.Fatal("first acquire should admit")
	}
	ok, _ = a.TryAcquire(4)
	if !ok {
		t.Fatal("exactly-at-budget acquire should admit")
	}
	ok, hint := a.TryAcquire(1)
	if ok {
		t.Fatal("over-budget acquire should reject")
	}
	if hint <= 0 {
		t.Fatalf("rejection must carry a positive retry hint, got %v", hint)
	}
	if got := a.Rejects(); got != 1 {
		t.Fatalf("rejects = %d, want 1", got)
	}
	a.Release(4)
	if ok, _ := a.TryAcquire(4); !ok {
		t.Fatal("acquire after release should admit")
	}
	a.Release(6)
	a.Release(4)
	if n := a.Inflight(); n != 0 {
		t.Fatalf("inflight after balanced releases = %d, want 0", n)
	}
}

func TestAdmissionOversizedRequestAdmittedWhenIdle(t *testing.T) {
	a := NewAdmission(4)
	// A single request heavier than the whole budget must still run on
	// an idle daemon: the budget bounds concurrency, not request size.
	ok, _ := a.TryAcquire(100)
	if !ok {
		t.Fatal("oversized request on idle daemon should admit")
	}
	if ok, _ := a.TryAcquire(1); ok {
		t.Fatal("anything else while oversized request holds should reject")
	}
	a.Release(100)
	if ok, _ := a.TryAcquire(1); !ok {
		t.Fatal("acquire after oversized release should admit")
	}
}

func TestAdmissionDisabledAndNil(t *testing.T) {
	for _, a := range []*Admission{nil, NewAdmission(0), NewAdmission(-5)} {
		for i := 0; i < 100; i++ {
			if ok, hint := a.TryAcquire(50); !ok || hint != 0 {
				t.Fatalf("disabled admission rejected (ok=%v hint=%v)", ok, hint)
			}
		}
		a.Release(50)
	}
}

func TestAdmissionRetryHintScalesWithOvershoot(t *testing.T) {
	a := NewAdmission(10)
	a.TryAcquire(10)
	_, small := a.TryAcquire(1)
	_, big := a.TryAcquire(40)
	if big <= small {
		t.Fatalf("hint should grow with overshoot: small=%v big=%v", small, big)
	}
	if big > a.RetryCap {
		t.Fatalf("hint %v exceeds cap %v", big, a.RetryCap)
	}
	// Enormous overshoot clamps at the cap.
	_, huge := a.TryAcquire(1 << 40)
	if huge != a.RetryCap {
		t.Fatalf("huge overshoot hint = %v, want cap %v", huge, a.RetryCap)
	}
}

func TestAdmissionUnbalancedReleaseClamps(t *testing.T) {
	a := NewAdmission(4)
	a.Release(100) // buggy caller; must not widen the budget
	if n := a.Inflight(); n != 0 {
		t.Fatalf("inflight after stray release = %d, want 0", n)
	}
	ok, _ := a.TryAcquire(4)
	if !ok {
		t.Fatal("budget should be intact after stray release")
	}
	if ok, _ := a.TryAcquire(4); ok {
		t.Fatal("budget should not have widened")
	}
}

func TestJitterBounds(t *testing.T) {
	rng := NewRand()
	base := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		d := Jitter(base, 0.2, rng)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jitter out of ±20%% band: %v", d)
		}
	}
	if d := Jitter(base, 0, rng); d != base {
		t.Fatalf("zero-frac jitter should be identity, got %v", d)
	}
	if d := Jitter(0, 0.2, rng); d != 0 {
		t.Fatalf("zero-duration jitter should be identity, got %v", d)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	var slept []time.Duration
	err := Retry(5, 10*time.Millisecond, func(d time.Duration) { slept = append(slept, d) }, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry = %v, want nil", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(slept))
	}
	// Doubling with ±20% jitter: first ∈ [8,12]ms, second ∈ [16,24]ms.
	if slept[0] < 8*time.Millisecond || slept[0] > 12*time.Millisecond {
		t.Fatalf("first sleep %v outside jittered base band", slept[0])
	}
	if slept[1] < 16*time.Millisecond || slept[1] > 24*time.Millisecond {
		t.Fatalf("second sleep %v outside doubled band", slept[1])
	}
}

func TestRetryExhaustsAndReturnsLastError(t *testing.T) {
	want := errors.New("still broken")
	calls := 0
	err := Retry(3, time.Millisecond, func(time.Duration) {}, func() error {
		calls++
		return want
	})
	if !errors.Is(err, want) {
		t.Fatalf("Retry = %v, want %v", err, want)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	// Degenerate attempts still run once.
	calls = 0
	if err := Retry(0, 0, func(time.Duration) {}, func() error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("attempts=0: err=%v calls=%d", err, calls)
	}
}

func TestDiskLadderEscalationAndHysteresis(t *testing.T) {
	free := uint64(1000) // per-mille of a fixed total=1000
	probe := func(string) (uint64, uint64, error) { return free, 1000, nil }
	m := NewDiskMonitor("/ignored", probe)

	step := func(f uint64, want PressureLevel) {
		t.Helper()
		free = f
		lvl, _, err := m.Eval()
		if err != nil {
			t.Fatalf("Eval: %v", err)
		}
		if lvl != want {
			t.Fatalf("free=%d‰: level=%v, want %v", f, lvl, want)
		}
	}

	step(1000, LevelOK)
	step(210, LevelOK)       // above elevated watermark (20%)
	step(190, LevelElevated) // <20% engages
	step(210, LevelElevated) // inside hysteresis band (needs >25%)
	step(260, LevelOK)       // cleared 20%*1.25
	step(20, LevelEmergency) // skips straight past elevated
	step(37, LevelEmergency) // >3% but inside emergency band (needs >3.75%)
	step(50, LevelElevated)  // cleared emergency band, still <20%
	step(90, LevelElevated)  // 9% free is no rung of its own
	step(230, LevelElevated) // inside elevated band (needs >25%)
	step(400, LevelOK)       // cleared elevated band
	step(10, LevelEmergency) // immediate re-escalation
	step(500, LevelOK)       // multi-rung drop emergency→OK in one probe
}

func TestDiskMonitorProbeErrorHoldsLevel(t *testing.T) {
	fail := false
	free := uint64(1)
	probe := func(string) (uint64, uint64, error) {
		if fail {
			return 0, 0, errors.New("statfs: boom")
		}
		return free, 100, nil
	}
	m := NewDiskMonitor("x", probe)
	if lvl, _, _ := m.Eval(); lvl != LevelEmergency {
		t.Fatalf("level = %v, want emergency", lvl)
	}
	fail = true
	lvl, changed, err := m.Eval()
	if err == nil {
		t.Fatal("expected probe error")
	}
	if lvl != LevelEmergency || changed {
		t.Fatalf("probe error must hold level: lvl=%v changed=%v", lvl, changed)
	}
}

func TestStatfsProbeOnRealDir(t *testing.T) {
	dir := t.TempDir()
	freeB, total, err := StatfsProbe(dir)
	if err != nil {
		t.Fatalf("StatfsProbe: %v", err)
	}
	if total == 0 {
		t.Fatal("total = 0")
	}
	if freeB > total {
		t.Fatalf("free %d > total %d", freeB, total)
	}
}

func TestPressureLevelString(t *testing.T) {
	want := map[PressureLevel]string{
		LevelOK: "ok", LevelElevated: "elevated", LevelEmergency: "emergency",
	}
	for lvl, s := range want {
		if lvl.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(lvl), lvl.String(), s)
		}
	}
}

func TestMemEstimateTotal(t *testing.T) {
	m := MemEstimate{Checkpoints: 10, WAL: 20, State: 30}
	if m.Total() != 60 {
		t.Fatalf("Total = %d, want 60", m.Total())
	}
}
