//go:build unix

package jobmux_test

import (
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"marsit/internal/transport"
	"marsit/internal/transport/jobmux"
	"marsit/internal/transport/shm"
)

// TestOverlappingJobsOverSHM runs two jobs at once through one Mux
// over the shared-memory fabric. Each job's endpoint sends on the same
// inner link concurrently with the other's, so the single-producer rings
// must serialize their producers: without that, both jobs publish at
// the same head and frames tear, cross or vanish. The sizes vary per
// frame so a torn frame cannot pass for a whole one. Run under -race
// with GOMAXPROCS ≥ 2 to see the unserialized writers.
func TestOverlappingJobsOverSHM(t *testing.T) {
	if goruntime.GOMAXPROCS(0) < 2 {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	}
	inner, err := shm.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	m := jobmux.New(inner, jobmux.Config{})
	defer m.Close()
	const jobs, count = 2, 2000
	frame := func(id uint32, k int) []byte {
		data := make([]byte, 2+(int(id)*7+k)%97)
		data[0], data[1] = byte(id), byte(k)
		for i := 2; i < len(data); i++ {
			data[i] = byte(int(id) ^ k ^ i)
		}
		return data
	}
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		id := uint32(i + 1)
		j, err := m.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			ep := j.Endpoint(0)
			for k := 0; k < count; k++ {
				p := transport.Packet{Data: frame(id, k), Wire: k, Clock: float64(id)}
				if err := ep.Send(1, p); err != nil {
					t.Errorf("job %d send %d: %v", id, k, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			ep := j.Endpoint(1)
			for k := 0; k < count; k++ {
				p, err := ep.Recv(0)
				if err != nil {
					t.Errorf("job %d recv %d: %v", id, k, err)
					return
				}
				if p.Job != id || p.Wire != k || p.Clock != float64(id) || string(p.Data) != string(frame(id, k)) {
					t.Errorf("job %d recv %d: torn or crossed frame (job %d, wire %d, %d bytes)", id, k, p.Job, p.Wire, len(p.Data))
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("overlapping jobs over shm wedged")
	}
}
