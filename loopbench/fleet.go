package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"copycat"
	"copycat/internal/intlearn"
	"copycat/internal/persist"
	"copycat/internal/session"
	"copycat/internal/sourcegraph"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
	"copycat/internal/wrappers"
)

// Fleet sizing: more sessions than the memory budget keeps resident, so
// most attaches reload a session from its snapshot.
const (
	fleetSessions = 48
	fleetTenants  = 8
	fleetBudget   = 2 << 20
	fleetClients  = 2
	// fleetReplayEvery spaces the traced run's session-layer replays
	// (snapshot, compression, factory, restore), which cost about as much
	// as a reload.
	fleetReplayEvery = 4
)

// fleet is a multi-tenant host with a durable file store: two clients
// attach seeded-random sessions, refresh, give one ranking-feedback
// round, refresh again and release.
type fleet struct {
	world *webworld.World
	host  *copycat.Host
	dir   string
	ids   []string

	mu   sync.Mutex
	last map[string][]string // session → suggestions at the end of its last op

	tr         atomic.Pointer[tracer] // routes factory and store spans when traced
	factory    session.Factory        // the untimed demo factory, for replays
	setupStats session.HostStats
}

func (f *fleet) clients() int { return fleetClients }

func (f *fleet) setup(seed int64) error {
	cfg := copycat.DefaultWorldConfig()
	f.world = webworld.Generate(cfg)
	f.factory = copycat.DemoFactory(cfg)
	dir, err := os.MkdirTemp(workDir, ".loopbench-fleet-")
	if err != nil {
		return err
	}
	f.dir = dir
	fs, err := session.NewFileStore(dir)
	if err != nil {
		return err
	}
	m := session.NewManager(session.Config{
		Factory:      f.timedFactory(f.factory),
		MaxSessions:  fleetSessions,
		MemoryBudget: fleetBudget,
		Store:        &timedStore{FileStore: fs, f: f},
	})
	f.host = &copycat.Host{Manager: m, World: f.world}
	f.last = map[string][]string{}
	// Every session exists before any refresh, so no early refresh can
	// feed the admission SLO before the fleet is complete.
	for i := 0; i < fleetSessions; i++ {
		sys, err := f.host.Create(fmt.Sprintf("tenant%02d", i%fleetTenants))
		if err != nil {
			return fmt.Errorf("create %d: %w", i, err)
		}
		f.ids = append(f.ids, sys.Session.ID())
		sys.Release()
	}
	for _, id := range f.ids {
		if err := f.seedSession(id); err != nil {
			return fmt.Errorf("seed %s: %w", id, err)
		}
	}
	f.setupStats = m.Stats()
	return nil
}

// seedSession drives a session to integration mode (two shelters pasted
// and generalized, the contacts sheet imported) and gives it one feedback
// round: the first swap demotes the record-linked contacts out of the top
// two, after which every op's feedback moves two service completions
// only. One attach per session keeps set-up from reloading sessions it
// has already built.
func (f *fleet) seedSession(id string) error {
	sys, err := f.host.Attach(id)
	if err != nil {
		return err
	}
	defer sys.Release()
	ws := sys.Workspace
	s0, s1 := f.world.Shelters[0], f.world.Shelters[1]
	sel, err := wrappers.NewBrowser(ws.Clip, f.world.ShelterSite(webworld.StyleTable)).CopyRows([][]string{
		{s0.Name, s0.Street, s0.City},
		{s1.Name, s1.Street, s1.City},
	})
	if err != nil {
		return err
	}
	if err := ws.Paste(sel); err != nil {
		return err
	}
	if err := ws.AcceptRows(); err != nil {
		return err
	}
	doc := f.world.ContactsSpreadsheet()
	ws.SelectTab("Contacts")
	sel, err = wrappers.NewSpreadsheet(ws.Clip, doc).CopyRange(1, 0, 2, len(doc.Grid()[0])-1)
	if err != nil {
		return err
	}
	if err := ws.Paste(sel); err != nil {
		return err
	}
	if err := ws.AcceptRows(); err != nil {
		return err
	}
	ws.SelectTab("Sheet1")
	ws.SetMode(workspace.ModeIntegration)
	comps := ws.RefreshColumnSuggestions()
	if len(comps) < 2 {
		return fmt.Errorf("%d suggestions after seeding", len(comps))
	}
	ws.Int.AcceptCompletion(comps[1], []intlearn.Completion{comps[0]})
	f.last[id] = suggestionKeys(ws.RefreshColumnSuggestions())
	return nil
}

// op: attach a seeded-random session of the client's own half, refresh
// (its first refresh must equal the list it ended its previous op with),
// prefer the runner-up suggestion over the top one, refresh, release.
// Preferring the runner-up swaps the top two by one margin, so a
// session's weights oscillate in a bounded band however many ops it
// sees, and its tab schema never changes. The clients' halves are
// disjoint, so no attach waits on the other client's pin and only this
// client can reload the session between the two reads of its reload
// count; evictions still interleave across clients.
func (f *fleet) op(c *client) error {
	id := f.ids[c.id+fleetClients*c.rng.Intn(len(f.ids)/fleetClients)]
	m := f.host.Manager
	if c.traced() && f.tr.Load() == nil {
		f.tr.Store(c.tr)
	}
	before, _ := m.Get(id)
	sp := c.begin("session", "acquire")
	sys, err := f.host.Attach(id)
	d := sp.end()
	if err != nil {
		return err
	}
	c.observe("attach", d)
	after, _ := m.Get(id)
	reloaded := after.Reloads > before.Reloads
	if reloaded {
		c.observe("reload", d)
	}
	ws := sys.Workspace
	released := false
	release := func() {
		if !released {
			released = true
			sp := c.begin("session", "release")
			sys.Release()
			sp.end()
		}
	}
	defer release()
	var dec0 int
	if c.traced() {
		c.untimed(func() {
			c.tr.follow(ws, c.lane)
			dec0 = decisionsRecorded(ws)
			c.add("session.reloads", b2f(reloaded))
		})
	}
	stats0 := ws.ExecStats.Snapshot()
	h0, m0, e0 := ws.PlanCache.Stats()

	sp = c.begin("workspace", "refresh")
	comps := ws.RefreshColumnSuggestions()
	d = sp.end()
	if reloaded {
		c.observe("refresh_cold", d)
	}
	var bad error
	c.untimed(func() {
		f.mu.Lock()
		prev := f.last[id]
		f.mu.Unlock()
		bad = sameKeys(suggestionKeys(comps), prev)
		if bad == nil && c.traced() && reloaded {
			bad = replayCompletions(c, comps)
		}
	})
	if bad != nil {
		return fmt.Errorf("session %s (reloaded %v): first refresh differs from its last list: %w", id, reloaded, bad)
	}
	if len(comps) < 2 {
		return fmt.Errorf("session %s: %d suggestions, need two for feedback", id, len(comps))
	}
	sp = c.begin("mira", "update")
	ws.Int.AcceptCompletion(comps[1], []intlearn.Completion{comps[0]})
	c.observe("feedback", sp.end())
	sp = c.begin("workspace", "refresh")
	comps = ws.RefreshColumnSuggestions()
	c.observe("refresh", sp.end())
	c.untimed(func() {
		keys := suggestionKeys(comps)
		f.mu.Lock()
		f.last[id] = keys
		f.mu.Unlock()
		if c.traced() {
			s := ws.ExecStats.Snapshot()
			c.add("intlearn.candidates_run", float64(s.CandidatesRun-stats0.CandidatesRun))
			c.add("intlearn.plans_reused", float64(s.PlansReused-stats0.PlansReused))
			c.add("intlearn.plans_invalidated", float64(s.PlansInvalidated-stats0.PlansInvalidated))
			h, mi, e := ws.PlanCache.Stats()
			c.add("plancache.hits", float64(h-h0))
			c.add("plancache.lookups", float64(h-h0+mi-m0))
			c.add("plancache.evictions", float64(e-e0))
			c.add("mira.weights", float64(len(ws.Int.Mira.Snapshot())))
			c.add("sourcegraph.edges", float64(ws.Int.Graph.Len()))
			c.add("obs.decisions", float64(decisionsRecorded(ws)-dec0))
			if c.ops%fleetReplayEvery == 0 {
				bad = f.replaySession(c, sys.Session.State())
			}
			// Let go of the workspace: an evicted session's state must
			// become garbage for the heap measurement in finish.
			c.tr.forget(ws)
		}
	})
	release()
	return bad
}

// replaySession times the session layer's inner steps on the live state:
// snapshot, compression both ways, and a reload's factory, restore and
// source-graph discovery.
func (f *fleet) replaySession(c *client, st *session.State) error {
	sp := c.replaySpan("session", "snapshot")
	data, err := st.Snapshot()
	sp.end()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	sp = c.replaySpan("persist", "compress")
	z := persist.Compress(data)
	sp.end()
	sp = c.replaySpan("persist", "decompress")
	raw, err := persist.Decompress(z)
	sp.end()
	if err != nil || !bytes.Equal(raw, data) {
		return fmt.Errorf("compressed snapshot does not round-trip (%v)", err)
	}
	c.add("persist.raw_kb", float64(len(data))/1024)
	c.add("persist.ratio", float64(len(data))/float64(len(z)))
	fresh, err := f.factory()
	if err != nil {
		return err
	}
	sp = c.replaySpan("session", "restore")
	err = fresh.Restore(data)
	sp.end()
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	sp = c.replaySpan("sourcegraph", "discover")
	fresh.Workspace.Int.Graph.Discover(sourcegraph.DefaultOptions())
	sp.end()
	return nil
}

// finish checks the host's accounting once the clients have stopped.
func (f *fleet) finish(r *result, traced bool) {
	m := f.host.Manager
	st := m.Stats()
	evicted := 0
	for _, in := range m.List() {
		if !in.Resident {
			evicted++
		}
	}
	r.problems = append(r.problems, checkHostAccounting(st, evicted)...)
	if !traced {
		return
	}
	ops := float64(r.Attempted)
	r.set("session.evictions", float64(st.Evictions-f.setupStats.Evictions)/ops, "count")
	if ss, ok := m.Store().(session.StatsStore); ok {
		s := ss.Stats()
		if s.Snapshots > 0 {
			r.set("snapshot_kb", float64(s.DiskBytes)/float64(s.Snapshots)/1024, "KiB")
		}
	}
	if st.Resident > 0 {
		r.set("session.estimate_kb", float64(st.ResidentBytes)/float64(st.Resident)/1024, "KiB")
		// Measured heap per resident session: the live heap drop when
		// every resident session is evicted.
		resident := st.Resident
		h1 := heapBytes()
		for _, in := range m.List() {
			if in.Resident {
				_ = m.Evict(in.ID)
			}
		}
		h2 := heapBytes()
		r.set("session.heap_kb", float64(h1-h2)/float64(resident)/1024, "KiB")
	}
}

func (f *fleet) close() {
	if f.dir != "" {
		_ = os.RemoveAll(f.dir)
	}
}

// timedFactory wraps the session factory so the traced run sees each
// call (creates and reloads) as a span.
func (f *fleet) timedFactory(base session.Factory) session.Factory {
	return func() (*session.State, error) {
		o := open{lane: f.tr.Load().laneOfCaller(), layer: "session", name: "factory", start: time.Now()}
		st, err := base()
		o.end()
		return st, err
	}
}

// timedStore is the file store with its saves and loads traced.
type timedStore struct {
	*session.FileStore
	f *fleet
}

func (s *timedStore) Save(id string, data []byte) error {
	o := open{lane: s.f.tr.Load().laneOfCaller(), layer: "session", name: "store_save", start: time.Now()}
	defer o.end()
	return s.FileStore.Save(id, data)
}

func (s *timedStore) Load(id string) ([]byte, bool, error) {
	o := open{lane: s.f.tr.Load().laneOfCaller(), layer: "session", name: "store_load", start: time.Now()}
	defer o.end()
	return s.FileStore.Load(id)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
