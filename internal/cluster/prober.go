package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// proberLoop probes every member every probeInterval until stopped.
// The first round runs immediately so routing has real states as soon as the
// router accepts traffic.
func (rt *Router) proberLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	rt.probeRound()
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rt.probeRound()
		}
	}
}

// probeRound probes all members concurrently and installs their new states.
func (rt *Router) probeRound() {
	var wg sync.WaitGroup
	for _, m := range rt.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			rt.probe(m)
		}(m)
	}
	wg.Wait()
}

// probe classifies one member from its /healthz answer:
//
//   - unreachable, or an unexpected status: Down
//   - 503 with status "draining" or "swapping": Draining (the daemon asked
//     load balancers to stop routing; in-flight work still completes)
//   - 200 reporting degraded: Degraded (serving approximate under an SLO
//     budget ceiling — usable, but a healthy replica is the better pick)
//   - 200 otherwise: Healthy
func (rt *Router) probe(m *member) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	h, status, err := m.healthz(ctx)
	switch {
	case err != nil:
		m.setState(StateDown, err.Error())
	case status == http.StatusOK && h.Degraded:
		m.setState(StateDegraded, fmt.Sprintf("%d index(es) serving under a budget ceiling", h.DegradedIndexes))
	case status == http.StatusOK:
		m.setState(StateHealthy, "")
	case h.Status == "draining" || h.Status == "swapping":
		m.setState(StateDraining, h.Reason)
	default:
		m.setState(StateDown, fmt.Sprintf("healthz answered %d (%s)", status, h.Status))
	}
}
