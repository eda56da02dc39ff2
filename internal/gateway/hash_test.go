package gateway_test

import (
	"fmt"
	"testing"

	"livesim/internal/gateway"
)

// TestRendezvousBalance: sequential session names spread evenly over
// the pool, whatever the backend addresses look like. Each backend of
// k must win within 5 points of 1/k of 1 000 names.
func TestRendezvousBalance(t *testing.T) {
	pools := map[string][]string{
		"socket paths": {"unix:/tmp/lsgw1385962810/d.sock", "unix:/tmp/lsgw2741177363/d.sock", "unix:/tmp/lsgw400112895/d.sock"},
		"unix":         {"unix:/tmp/ls1.sock", "unix:/tmp/ls2.sock", "unix:/tmp/ls3.sock"},
		"tcp":          {"127.0.0.1:9310", "127.0.0.1:9311", "127.0.0.1:9312"},
	}
	names := map[string]string{"s%d": "s", "session-%d": "session-", "user%03d": "user"}
	const n = 1000
	for pool, addrs := range pools {
		for _, k := range []int{2, 3} {
			for format, label := range names {
				wins := make([]int, k)
				for i := 0; i < n; i++ {
					session := fmt.Sprintf(format, i)
					best := 0
					for j := 1; j < k; j++ {
						if gateway.RendezvousScore(addrs[j], session) > gateway.RendezvousScore(addrs[best], session) {
							best = j
						}
					}
					wins[best]++
				}
				for j, w := range wins {
					if d := w - n/k; d < -n/20 || d > n/20 {
						t.Errorf("%s pool of %d, names %sN: backend %d wins %d of %d (%v)", pool, k, label, j, w, n, wins)
					}
				}
			}
		}
	}
}
