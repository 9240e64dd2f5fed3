package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"marsit/internal/obs"
	"marsit/internal/rng"
	"marsit/internal/service"
	"marsit/internal/transport/tcp"
)

// The jobs-tcp shape: two clients, each on its own keep-alive HTTP
// connection to the leader's control plane, submit tree jobs (D = 4,096,
// 20 rounds, check mode) to an in-process 4-rank daemon fleet sharing
// one TCP fabric. The fleet runs on TCP, the daemon's default fabric: on
// the shared-memory fabric the job multiplexer sends into
// single-producer rings from several jobs at once, and the fleet wedges
// or poisons itself.
const (
	jobClients = 2
	jobDim     = 4096
	jobRounds  = 20
	jobSetups  = 9
	jobOpLimit = 10 * time.Second
	jobPoll    = time.Millisecond
)

var errRefused = errors.New("refused with 429")

// fleet is a running daemon fleet with its control plane and clients.
type fleet struct {
	fab     *tcp.Fabric
	daemons []*service.Daemon
	srv     *obs.Server
	url     string
	clients []*http.Client
}

// startFleet starts the daemons over a fresh TCP fabric, mounts the
// leader's control plane beside /metrics (with the active telemetry
// registry, if any) and opens one keep-alive connection per client.
func startFleet() (*fleet, error) {
	fab, err := tcp.NewLocal(workers)
	if err != nil {
		return nil, err
	}
	f := &fleet{fab: fab, daemons: make([]*service.Daemon, workers)}
	for r := workers - 1; r >= 0; r-- {
		d, err := service.New(service.Config{Rank: r, Fabric: fab})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("daemon %d: %w", r, err)
		}
		f.daemons[r] = d
	}
	reg := obs.Active()
	if reg == nil {
		reg = obs.NewRegistry() // /metrics renders it; nothing feeds it
	}
	if f.srv, err = obs.Serve("127.0.0.1:0", reg); err != nil {
		f.close()
		return nil, err
	}
	h := f.daemons[0].Handler()
	f.srv.Handle("/jobs", h)
	f.srv.Handle("/jobs/", h)
	f.url = "http://" + f.srv.Addr()
	for i := 0; i < jobClients; i++ {
		c := &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   jobOpLimit,
		}
		f.clients = append(f.clients, c)
		if _, err := f.get(c, "/jobs"); err != nil {
			f.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
	}
	return f, nil
}

// close shuts the fleet down within jobOpLimit.
func (f *fleet) close() error {
	return within(jobOpLimit, func() error {
		for _, c := range f.clients {
			c.CloseIdleConnections()
		}
		if f.srv != nil {
			f.srv.Close()
		}
		if f.daemons[0] != nil {
			f.daemons[0].Shutdown()
		}
		for _, d := range f.daemons[1:] {
			if d != nil {
				d.Close()
			}
		}
		return f.fab.Close()
	})
}

func (f *fleet) get(c *http.Client, path string) ([]byte, error) {
	resp, err := c.Get(f.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// submit posts spec and returns the job id and the request's round trip.
func (f *fleet) submit(c *http.Client, spec service.JobSpec) (uint32, time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.Post(f.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	rtt := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		return 0, rtt, errRefused
	default:
		return 0, rtt, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(reply))
	}
	var r struct {
		ID uint32 `json:"id"`
	}
	if err := json.Unmarshal(reply, &r); err != nil {
		return 0, rtt, fmt.Errorf("POST /jobs reply: %w", err)
	}
	return r.ID, rtt, nil
}

// await polls job id until it is terminal or its deadline passes.
func (f *fleet) await(c *http.Client, id uint32, deadline time.Time) (service.JobStatus, error) {
	path := fmt.Sprintf("/jobs/%d", id)
	for {
		body, err := f.get(c, path)
		if err != nil {
			return service.JobStatus{}, err
		}
		var st service.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return st, fmt.Errorf("GET %s reply: %w", path, err)
		}
		if st.State.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %d %w in state %q", id, errDeadline, st.State)
		}
		time.Sleep(jobPoll)
	}
}

// jobTimes is the per-job split of the verified jobs.
type jobTimes struct {
	jobMS, submitMS, queueMS, runMS []float64
	submits, refused                int
}

// jobSpec is the workload's job; only the gradient seed varies.
func jobSpec(seed uint64) service.JobSpec {
	return service.JobSpec{Collective: "tree", Dim: jobDim, Rounds: jobRounds, Seed: seed, Check: true}
}

// runJobs is the jobs-tcp workload.
func runJobs(rc runCfg) *outcome {
	o, _ := jobsPass(rc)
	return o
}

// jobsPass runs the jobs-tcp workload and also returns the
// control-plane split of its jobs.
func jobsPass(rc runCfg) (*outcome, *jobTimes) {
	o := &outcome{}
	jt := &jobTimes{}
	// Each set-up starts a fleet and runs one verified job on it, so it
	// times everything up to the first result, lazy initialization
	// included. The last set-up's job fixes the exact figures every
	// later job must repeat: a tree job's bytes and clock do not depend
	// on the data.
	var f *fleet
	var warm service.JobStatus
	for i := 0; i < jobSetups; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				o.attempted++
				o.fail("fleet shutdown: %w", err)
				return o, jt
			}
		}
		t0 := time.Now()
		var err error
		o.attempted++
		if f, err = startFleet(); err != nil {
			o.fail("fleet start over tcp: %w", err)
			return o, jt
		}
		warm, _, err = f.job(f.clients[0], nil, -1, -1, jobSpec(rc.seed))
		if err == nil && (warm.State != service.StateDone || !warm.Checked) {
			err = fmt.Errorf("job %d ended %q (checked %v): %s", warm.ID, warm.State, warm.Checked, warm.Error)
		}
		if err != nil {
			o.fail("first job (tree D=%d) of a new fleet: %w", jobDim, err)
			f.close()
			return o, jt
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}
	defer func() {
		if err := f.close(); err != nil {
			o.attempted++
			o.fail("fleet shutdown: %w", err)
		}
	}()
	// An operation runs two jobs side by side: their bytes add up, their
	// simulated clocks run in parallel.
	o.wireMB = jobClients * float64(warm.WireBytes) / 1e6
	o.simMS = warm.Clock * 1e3

	// An operation is one step of the two clients in lockstep: both
	// submit, and the next step starts when both jobs are terminal, so
	// two jobs overlap in every step. Its latency runs from the first
	// submission to the last finish. Free-running clients drift in and
	// out of phase, which moved a run's median job latency by 15%; and
	// within a step the job admitted first finishes well before the
	// other, so the median over single jobs fell between two modes.
	// Attempted and failed count jobs.
	seeds := make([]*rng.PCG, jobClients)
	for ci := range seeds {
		seeds[ci] = rng.NewStream(rc.seed, 0x10b+uint64(ci))
	}
	type reply struct {
		st  service.JobStatus
		rtt time.Duration
		err error
	}
	start := time.Now()
	for k := 0; rc.more(start) && !o.aborted; k++ {
		root := rc.spans.begin("op", int64(k), -1)
		replies := make([]reply, jobClients)
		var wg sync.WaitGroup
		for ci, c := range f.clients {
			wg.Add(1)
			go func(ci int, c *http.Client, spec service.JobSpec) {
				defer wg.Done()
				id := rc.spans.begin("service.job", int64(k), root)
				r := &replies[ci]
				r.st, r.rtt, r.err = f.job(c, rc.spans, int64(k), id, spec)
				rc.spans.end(id)
			}(ci, c, jobSpec(seeds[ci].Uint64()))
		}
		wg.Wait()
		rc.spans.end(root)

		var first, last time.Time
		good := true
		for ci, r := range replies {
			st, err := r.st, r.err
			if err == nil {
				switch {
				case st.State != service.StateDone || !st.Checked:
					err = fmt.Errorf("job %d ended %q (checked %v): %s", st.ID, st.State, st.Checked, st.Error)
				case st.WireBytes != warm.WireBytes || st.Clock != warm.Clock:
					err = fmt.Errorf("job %d moved %d bytes in %v simulated s, warm-up job %d in %v",
						st.ID, st.WireBytes, st.Clock, warm.WireBytes, warm.Clock)
				}
			}
			o.attempted++
			jt.submits++
			if errors.Is(err, errRefused) {
				jt.refused++
			}
			if err != nil {
				o.fail("step %d client %d (tree D=%d): %w", k, ci, jobDim, err)
				good = false
				continue
			}
			jt.jobMS = append(jt.jobMS, ms(st.FinishedAt.Sub(st.SubmittedAt)))
			jt.submitMS = append(jt.submitMS, ms(r.rtt))
			jt.queueMS = append(jt.queueMS, ms(st.StartedAt.Sub(st.SubmittedAt)))
			jt.runMS = append(jt.runMS, ms(st.FinishedAt.Sub(st.StartedAt)))
			if first.IsZero() || st.SubmittedAt.Before(first) {
				first = st.SubmittedAt
			}
			if st.FinishedAt.After(last) {
				last = st.FinishedAt
			}
		}
		if good {
			o.lat = append(o.lat, ms(last.Sub(first)))
		}
	}
	o.busy = time.Since(start)
	o.accuracy = ratio(float64(len(jt.jobMS)), float64(jt.submits))
	return o, jt
}

// job submits spec and waits for it to end.
func (f *fleet) job(c *http.Client, sp *spans, op int64, parent int, spec service.JobSpec) (service.JobStatus, time.Duration, error) {
	id := sp.begin("service.submit", op, parent)
	jid, rtt, err := f.submit(c, spec)
	sp.end(id)
	if err != nil {
		return service.JobStatus{}, rtt, err
	}
	id = sp.begin("service.await", op, parent)
	st, err := f.await(c, jid, time.Now().Add(jobOpLimit))
	sp.end(id)
	return st, rtt, err
}
