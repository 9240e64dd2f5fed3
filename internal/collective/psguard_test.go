package collective

import (
	"fmt"
	"strings"
	"testing"

	"marsit/internal/netsim"
	"marsit/internal/tensor"
)

// TestHubRejectsLinkOverrides: the PS hub schedule aggregates over the
// uniform Model only, so a cluster carrying per-link α–β overrides must
// be rejected loudly instead of silently charging the wrong clocks.
func TestHubRejectsLinkOverrides(t *testing.T) {
	c := cluster(3)
	base := c.Model
	c.SetLinkCost(0, 1, netsim.LinkCost{Latency: base.Latency * 3, BytePeriod: base.BytePeriod})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "per-link α–β overrides") {
			t.Fatalf("unexpected panic payload %q", s)
		}
	}()
	up := []int{8, 8, 8}
	hubPushPull(c, up, up)
}

// TestHubAcceptsClearedOverrides: clearing the overrides restores the
// uniform model and the hub schedule runs again.
func TestHubAcceptsClearedOverrides(t *testing.T) {
	c := cluster(3)
	base := c.Model
	c.SetLinkCost(0, 1, netsim.LinkCost{Latency: base.Latency * 3, BytePeriod: base.BytePeriod})
	c.ClearLinkCosts()
	vecs := []tensor.Vec{{1, 2}, {3, 4}, {5, 6}}
	PSAllReduce(c, vecs)
	assertConsensus(t, vecs)
}
