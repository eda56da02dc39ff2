package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// eventTel is a telemetry plane with only its event ring on.
func eventTel() *Telemetry {
	return NewTelemetry(TelemetryConfig{SpanStoreCap: -1, FlightRecorderCap: -1}, "testd", nil, 0, nil, "", nil)
}

func TestEventRingRetainsNewest(t *testing.T) {
	tel := eventTel()
	const pushed = eventRingCap + 2
	for i := 0; i < pushed; i++ {
		tel.Event("rollback", "s1", "", "boom")
	}
	evs := tel.Events(0)
	if len(evs) != eventRingCap {
		t.Fatalf("retained %d events, want %d", len(evs), eventRingCap)
	}
	// The newest eventRingCap survive, oldest first: the first two are gone.
	for i := range evs {
		if want := uint64(i + 3); evs[i].Seq != want {
			t.Errorf("evs[%d].Seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
	if tel.events.Seq() != pushed {
		t.Errorf("Seq = %d, want %d", tel.events.Seq(), pushed)
	}
}

func TestEventRingSince(t *testing.T) {
	tel := eventTel()
	for i := 0; i < 5; i++ {
		tel.Event("evict", "", "", "idle")
	}
	for since, want := range map[uint64]int{3: 2, 5: 0, 0: 5, 99: 0} {
		if got := len(tel.Events(since)); got != want {
			t.Errorf("Events(%d) returned %d events, want %d", since, got, want)
		}
	}
}

func TestEventRingNilSafe(t *testing.T) {
	var r *Ring[Event]
	r.Push(Event{Type: "x"})
	if evs, _ := r.Since(0); evs != nil || r.Len() != 0 || r.Seq() != 0 {
		t.Error("nil ring must return zeros")
	}
}

func TestEventRingConcurrent(t *testing.T) {
	tel := eventTel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tel.Event("t", "s", "", "m")
				_ = tel.Events(0)
			}
		}()
	}
	wg.Wait()
	evs := tel.Events(0)
	if len(evs) != eventRingCap || evs[len(evs)-1].Seq != 8*500 {
		t.Fatalf("kept %d events ending at seq %d, want %d ending at %d", len(evs), evs[len(evs)-1].Seq, eventRingCap, 8*500)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// The verb and /eventsz are one read path: both take a since-seq, and
// an empty answer is [] rather than null.
func TestEventsVerbAndEventsz(t *testing.T) {
	tel := eventTel()
	tel.Event("placed", "s0", "00112233aabbccdd", "created")
	tel.Event("migrated", "s0", "", "moved")
	out, data, err := tel.EventsVerb([]string{"1"})
	if err != nil || !strings.Contains(out, "#2") || strings.Contains(out, "#1 ") {
		t.Fatalf("events 1 = %q, %v", out, err)
	}
	var evs []Event
	if json.Unmarshal(data, &evs) != nil || len(evs) != 1 || evs[0].Type != "migrated" {
		t.Fatalf("events 1 data = %s", data)
	}
	if _, _, err := tel.EventsVerb([]string{"x"}); err == nil {
		t.Fatal("a bad since-seq must be refused")
	}
	if out, _, _ := tel.EventsVerb(nil); !strings.Contains(out, "[trace 00112233aabbccdd]") {
		t.Fatalf("events lost the trace pivot: %q", out)
	}
	for url, want := range map[string]string{"/eventsz?since=2": "[]\n", "/eventsz?since=x": "bad since"} {
		rec := httptest.NewRecorder()
		tel.handleEventsz(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s = %d %q, want %q", url, rec.Code, rec.Body.String(), want)
		}
	}
}
