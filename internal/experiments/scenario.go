package experiments

import (
	"fmt"

	"faaskeeper/internal/core"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/sim"
)

// scenario is one multi-session experiment run: the parts that are the
// experiment's own. runScenario owns the rest of the lifecycle — kernel,
// deployment, setup client, session connects, metric reset, process
// spawning, waiting and teardown — so every experiment shares one
// event order for it.
type scenario struct {
	cfg core.Config
	// sessions names one client per session process, connected in this
	// order after setup; extra names clients connected after them for
	// the concurrent process.
	sessions, extra []string
	// connectInProcess makes each session connect at the start of its
	// own process and close at its end, so the handshakes race each
	// other instead of completing before the measured window.
	connectInProcess bool
	// rounds is how many times the sessions run their op body, with a
	// barrier and collect between rounds (0 means 1).
	rounds int
	// setup creates the workload's nodes through the setup client.
	setup func(r *scenarioRun) error
	// session is session i's op loop in the current round.
	session func(r *scenarioRun, i int)
	// concurrent, when set, runs alongside each round's sessions in one
	// more process, spawned before them; it may poll r.sessionsDone.
	concurrent func(r *scenarioRun)
	// collect runs in the driver process after each round's processes
	// have all returned, before the driver closes the clients.
	collect func(r *scenarioRun)
}

// scenarioRun is the state of one scenario run, handed to its hooks.
type scenarioRun struct {
	k       *sim.Kernel
	d       *core.Deployment
	setup   *fkclient.Client
	clients []*fkclient.Client // sessions, then extra
	round   int
	// t0 is the start of the current round (the metric reset for round
	// 0); t1 is when its last session returned.
	t0, t1       sim.Time
	sessionsDone bool
}

// elapsed is the current round's measured window.
func (r *scenarioRun) elapsed() sim.Time { return r.t1 - r.t0 }

// sessionNames returns n session names prefix0..prefix{n-1}.
func sessionNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

// createAll creates every path, in order, with the same data.
func createAll(c *fkclient.Client, paths []string, data []byte) error {
	for _, p := range paths {
		if _, err := c.Create(p, data, 0); err != nil {
			return err
		}
	}
	return nil
}

// runScenario runs sc on a fresh kernel and deployment seeded with seed
// and returns the finished run; the deployment's meters stay readable.
func runScenario(seed int64, sc scenario) *scenarioRun {
	k := sim.NewKernel(seed)
	r := &scenarioRun{k: k, d: core.NewDeployment(k, sc.cfg)}
	k.Go("driver", func() { r.drive(sc) })
	k.Run()
	k.Shutdown()
	return r
}

func (r *scenarioRun) drive(sc scenario) {
	connect := func(name string) (*fkclient.Client, error) {
		return fkclient.Connect(r.d, name, r.d.Cfg.Profile.Home)
	}
	var err error
	if r.setup, err = connect("setup"); err != nil {
		return
	}
	if sc.setup != nil {
		if err := sc.setup(r); err != nil {
			return
		}
	}
	names := append(append([]string(nil), sc.sessions...), sc.extra...)
	r.clients = make([]*fkclient.Client, len(names))
	for i, name := range names {
		if sc.connectInProcess && i < len(sc.sessions) {
			continue
		}
		if r.clients[i], err = connect(name); err != nil {
			return
		}
	}
	r.d.ResetMetrics()
	rounds := max(sc.rounds, 1)
	for r.round = 0; r.round < rounds; r.round++ {
		r.t0, r.sessionsDone = r.k.Now(), false
		var conc *sim.WaitGroup
		if sc.concurrent != nil {
			conc = sim.NewWaitGroup(r.k)
			conc.Add(1)
			r.k.Go("concurrent", func() {
				defer conc.Done()
				sc.concurrent(r)
			})
		}
		done := sim.NewWaitGroup(r.k)
		for i, name := range sc.sessions {
			done.Add(1)
			r.k.Go(name, func() {
				defer done.Done()
				if sc.connectInProcess {
					c, err := connect(name)
					if err != nil {
						return
					}
					r.clients[i] = c
					defer c.Close()
				}
				sc.session(r, i)
			})
		}
		done.Wait()
		r.t1, r.sessionsDone = r.k.Now(), true
		if conc != nil {
			conc.Wait()
		}
		if sc.collect != nil {
			sc.collect(r)
		}
	}
	for _, c := range r.clients {
		if c != nil {
			c.Close()
		}
	}
	r.setup.Close()
}
