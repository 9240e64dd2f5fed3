package train

import (
	"fmt"
	"testing"
)

// TestEngineEquivalence trains every method on both execution engines —
// including the compressed sign-sum transports, cascading SSDM and the
// PS hub forms ported in this series — and asserts the recorded metric
// series is identical point for point — loss, simulated time, wire
// megabytes and matching rate — so the parallel engine changes
// wall-clock behaviour only.
func TestEngineEquivalence(t *testing.T) {
	cases := []struct {
		method Method
		topo   Topo
		elias  bool
	}{
		{method: MethodPSGD, topo: TopoRing},
		{method: MethodPSGD, topo: TopoTorus},
		{method: MethodPSGD, topo: TopoPS},
		{method: MethodMarsit, topo: TopoRing},
		{method: MethodMarsit, topo: TopoTorus},
		{method: MethodSignSGD, topo: TopoRing},
		{method: MethodSignSGD, topo: TopoTorus},
		{method: MethodSignSGD, topo: TopoPS},
		{method: MethodEFSignSGD, topo: TopoRing},
		{method: MethodEFSignSGD, topo: TopoTorus},
		{method: MethodEFSignSGD, topo: TopoPS},
		{method: MethodSSDM, topo: TopoRing},
		{method: MethodSSDM, topo: TopoRing, elias: true},
		{method: MethodSSDM, topo: TopoTorus},
		{method: MethodSSDM, topo: TopoPS},
		{method: MethodCascading, topo: TopoRing},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s_%s", tc.method, tc.topo)
		if tc.elias {
			name += "_elias"
		}
		t.Run(name, func(t *testing.T) {
			cfg := quickCfg(tc.method, tc.topo)
			cfg.Rounds = 12
			cfg.K = 5 // Marsit: mix full-precision and one-bit rounds
			cfg.UseElias = tc.elias

			seqCfg, parCfg := cfg, cfg
			seqCfg.Engine = EngineSeq
			parCfg.Engine = EnginePar
			seqRes, err := Run(seqCfg)
			if err != nil {
				t.Fatalf("seq: %v", err)
			}
			parRes, err := Run(parCfg)
			if err != nil {
				t.Fatalf("par: %v", err)
			}
			if len(seqRes.Points) != len(parRes.Points) {
				t.Fatalf("point counts: seq %d, par %d", len(seqRes.Points), len(parRes.Points))
			}
			for i := range seqRes.Points {
				s, p := seqRes.Points[i], parRes.Points[i]
				if s.Loss != p.Loss || s.MatchRate != p.MatchRate || s.MB != p.MB {
					t.Fatalf("round %d: seq %+v, par %+v", i, s, p)
				}
				if diff := s.SimTime - p.SimTime; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("round %d sim time: seq %v, par %v", i, s.SimTime, p.SimTime)
				}
			}
			if seqRes.FinalAcc != parRes.FinalAcc {
				t.Fatalf("final acc: seq %v, par %v", seqRes.FinalAcc, parRes.FinalAcc)
			}
		})
	}
}

// TestEngineEquivalenceTCP re-runs the engine equivalence with the
// parallel engine's TCP fabric: metric series must match the sequential
// engine point for point even when every collective hop crosses a real
// socket. ssdm covers the compressed sign-sum ring over the wire; the
// PS case covers the hub actor over the wire.
func TestEngineEquivalenceTCP(t *testing.T) {
	cases := []struct {
		method Method
		topo   Topo
	}{
		{MethodPSGD, TopoRing},
		{MethodMarsit, TopoRing},
		{MethodSSDM, TopoRing},
		{MethodSSDM, TopoPS},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s_%s", tc.method, tc.topo), func(t *testing.T) {
			cfg := quickCfg(tc.method, tc.topo)
			cfg.Rounds = 6
			cfg.K = 3

			seqCfg, tcpCfg := cfg, cfg
			seqCfg.Engine = EngineSeq
			tcpCfg.Engine = EnginePar
			tcpCfg.Transport = TransportTCP
			seqRes, err := Run(seqCfg)
			if err != nil {
				t.Fatalf("seq: %v", err)
			}
			tcpRes, err := Run(tcpCfg)
			if err != nil {
				t.Fatalf("tcp: %v", err)
			}
			if len(seqRes.Points) != len(tcpRes.Points) {
				t.Fatalf("point counts: seq %d, tcp %d", len(seqRes.Points), len(tcpRes.Points))
			}
			for i := range seqRes.Points {
				s, p := seqRes.Points[i], tcpRes.Points[i]
				if s.Loss != p.Loss || s.MatchRate != p.MatchRate || s.MB != p.MB {
					t.Fatalf("round %d: seq %+v, tcp %+v", i, s, p)
				}
				if diff := s.SimTime - p.SimTime; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("round %d sim time: seq %v, tcp %v", i, s.SimTime, p.SimTime)
				}
			}
			if seqRes.FinalAcc != tcpRes.FinalAcc {
				t.Fatalf("final acc: seq %v, tcp %v", seqRes.FinalAcc, tcpRes.FinalAcc)
			}
		})
	}
}

// TestUnknownTransportRejected checks transport validation at the train
// layer.
func TestUnknownTransportRejected(t *testing.T) {
	cfg := quickCfg(MethodPSGD, TopoRing)
	cfg.Transport = "carrier-pigeon"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus transport accepted")
	}
	old := DefaultTransport
	defer func() { DefaultTransport = old }()
	DefaultTransport = "bogus"
	cfg.Transport = ""
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus DefaultTransport accepted")
	}
}

// TestEngineValidation checks every method accepts EnginePar and that
// bogus engine names are rejected.
func TestEngineValidation(t *testing.T) {
	cfg := quickCfg(MethodSSDM, TopoRing)
	cfg.Rounds = 4
	cfg.Engine = EnginePar
	if _, err := Run(cfg); err != nil {
		t.Fatalf("ssdm under par engine: %v", err)
	}
	cfg.Engine = "warp"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus engine accepted")
	}
}

// TestDefaultEngineApplies checks the package default is honored when
// Config.Engine is empty.
func TestDefaultEngineApplies(t *testing.T) {
	old := DefaultEngine
	defer func() { DefaultEngine = old }()
	DefaultEngine = EnginePar
	cfg := quickCfg(MethodMarsit, TopoRing)
	cfg.Rounds = 3
	if _, err := Run(cfg); err != nil {
		t.Fatalf("run under default par engine: %v", err)
	}
	DefaultEngine = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus DefaultEngine accepted")
	}
}
