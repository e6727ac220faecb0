package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"copycat"
	"copycat/internal/docmodel"
	"copycat/internal/wrappers"
)

// repl drives a CopyCat session interactively: the stand-in for clicking
// around the Swing GUI. Commands arrive one per line (pipe a script or
// type at the prompt); `help` lists them.
func repl(seed int64, in io.Reader, out io.Writer) error {
	cfg := copycat.DefaultWorldConfig()
	cfg.Seed = seed
	sys := copycat.NewDemoSystem(cfg)
	ws := sys.Workspace

	makeSites := func(s *copycat.System) map[string]*docmodel.Site {
		return map[string]*docmodel.Site{
			"shelters":         s.ShelterSite(copycat.StyleTable),
			"shelters-grouped": s.ShelterSite(copycat.StyleGrouped),
			"shelters-prose":   s.ShelterSite(copycat.StyleProse),
			"supplies":         s.World.SuppliesPage(),
			"roads":            s.World.RoadsPage(),
		}
	}
	sites := makeSites(sys)
	var browser *wrappers.Browser
	sheet := sys.OpenSpreadsheet(sys.ContactsSpreadsheet())

	// Multi-session hosting state for :session. The host is created
	// lazily on the first `:session new`; until then the REPL drives the
	// initial standalone system ("local"), which is never evicted.
	// rebind points every wrapper handle — workspace, sites, browser,
	// spreadsheet — at the target system, unpinning the previous hosted
	// session so the evictor may reclaim it.
	var host *copycat.Host
	hosted := false
	storeDir := "" // :session store <dir>: durable snapshot tier for the lazily built host
	rebind := func(ns *copycat.System) {
		if hosted {
			sys.Release()
		}
		sys = ns
		ws = sys.Workspace
		sites = makeSites(sys)
		browser = nil
		sheet = sys.OpenSpreadsheet(sys.ContactsSpreadsheet())
	}
	defer func() {
		if hosted {
			sys.Release()
		}
		// A durable host checkpoints its resident fleet on the way out,
		// so a later REPL over the same store dir can attach everything.
		if host != nil && storeDir != "" {
			if n, err := host.Manager.Checkpoint(); err != nil {
				fmt.Fprintf(out, "checkpoint: %v\n", err)
			} else if n > 0 {
				fmt.Fprintf(out, "checkpointed %d sessions to %s\n", n, storeDir)
			}
		}
	}()

	// Telemetry server state for :serve. stopServe cancels the server's
	// context and waits for the drain; it is idempotent and also runs on
	// quit so the listener never outlives the session.
	var telem *copycat.TelemetryServer
	var telemStop func()
	stopServe := func() {
		if telemStop != nil {
			telemStop()
		}
		telem, telemStop = nil, nil
	}
	defer stopServe()

	fmt.Fprintln(out, "CopyCat interactive session — type `help` for commands, `quit` to exit.")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	prompt := func() { fmt.Fprintf(out, "copycat[%s]> ", ws.Mode()) }
	prompt()
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			prompt()
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		var err error
		switch cmd {
		case "quit", "exit":
			fmt.Fprintln(out, "bye")
			return nil
		case "help", ":help":
			printHelp(out)
		case "sites":
			names := make([]string, 0, len(sites))
			for n := range sites {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(out, "  %-18s %s\n", n, sites[n].Root)
			}
			fmt.Fprintln(out, "  contacts           (spreadsheet)")
		case "open":
			if len(args) != 1 {
				err = fmt.Errorf("usage: open <site>")
				break
			}
			site, ok := sites[args[0]]
			if !ok {
				err = fmt.Errorf("unknown site %q (try `sites`)", args[0])
				break
			}
			browser = sys.OpenBrowser(site)
			fmt.Fprintf(out, "opened %s\n", site.Root)
		case "page":
			if browser == nil {
				err = fmt.Errorf("no site open")
				break
			}
			fmt.Fprintln(out, renderPage(browser.Current()))
		case "copy":
			// copy <v1> | <v2> | ... — one row from the current page.
			if browser == nil {
				err = fmt.Errorf("no site open (use `open`)")
				break
			}
			values := splitPipe(strings.TrimPrefix(line, "copy "))
			if len(values) == 0 {
				err = fmt.Errorf("usage: copy <cell> | <cell> | ...")
				break
			}
			if _, err = browser.CopyText(values...); err == nil {
				fmt.Fprintf(out, "copied %d cell(s)\n", len(values))
			}
		case "copysheet":
			// copysheet <r0> <c0> <r1> <c1> — a range from the contacts sheet.
			if len(args) != 4 {
				err = fmt.Errorf("usage: copysheet r0 c0 r1 c1")
				break
			}
			var nums [4]int
			for i, a := range args {
				if nums[i], err = strconv.Atoi(a); err != nil {
					break
				}
			}
			if err == nil {
				if _, err = sheet.CopyRange(nums[0], nums[1], nums[2], nums[3]); err == nil {
					fmt.Fprintln(out, "copied spreadsheet range")
				}
			}
		case "paste":
			sel, ok := ws.Clip.Current()
			if !ok {
				err = fmt.Errorf("clipboard empty")
				break
			}
			if err = ws.Paste(sel); err == nil {
				info := ws.RowSuggestions()
				fmt.Fprintf(out, "pasted; %d suggested rows (%s)\n", info.Count, info.Description)
			}
		case "show":
			fmt.Fprint(out, ws.Render())
		case "accept":
			if err = ws.AcceptRows(); err == nil {
				fmt.Fprintf(out, "accepted; tab committed as source %q\n", ws.ActiveTab().SourceNode)
			}
		case "reject":
			if err = ws.RejectRows(); err == nil {
				info := ws.RowSuggestions()
				fmt.Fprintf(out, "next hypothesis: %d rows (%s)\n", info.Count, info.Description)
			}
		case "extend":
			fmt.Fprintf(out, "unified %d extra pages\n", ws.ExtendAcrossSite())
		case "mode":
			if len(args) != 1 {
				err = fmt.Errorf("usage: mode import|integration|cleaning")
				break
			}
			switch args[0] {
			case "import":
				ws.SetMode(copycat.ModeImport)
			case "integration":
				ws.SetMode(copycat.ModeIntegration)
			case "cleaning":
				ws.SetMode(copycat.ModeCleaning)
			default:
				err = fmt.Errorf("unknown mode %q", args[0])
			}
		case "cols":
			comps := ws.RefreshColumnSuggestions()
			if len(comps) == 0 {
				fmt.Fprintln(out, "no column completions (is the tab committed?)")
			}
			for i, c := range comps {
				note := ""
				if p := c.PartialNote(); p != "" {
					note = ", " + p
				}
				fmt.Fprintf(out, "  [%d] %s (cost %.2f, %d rows%s)\n", i, c.Edge.Label(), c.Cost, len(c.Result.Rows), note)
			}
			for _, d := range ws.SuggestionDrops() {
				fmt.Fprintf(out, "  dropped %s: %s\n", d.Target, d.Reason)
			}
		case "acceptcol":
			err = withIndex(args, func(i int) error { return ws.AcceptColumn(i) })
			if err == nil {
				fmt.Fprintln(out, "column accepted")
			}
		case "rejectcol":
			err = withIndex(args, func(i int) error { return ws.RejectColumn(i) })
		case "explain":
			err = withIndex(args, func(i int) error {
				s, e := ws.ExplainRow(i)
				if e == nil {
					fmt.Fprint(out, s)
				}
				return e
			})
		case "types":
			for i, c := range ws.ActiveTab().Schema {
				if ts, ok := ws.RecognizedTypeFor(i); ok {
					fmt.Fprintf(out, "  %s: %s (%.2f)\n", c.Name, ts.Type, ts.Score)
				} else {
					fmt.Fprintf(out, "  %s: (untyped)\n", c.Name)
				}
			}
		case "rename":
			if len(args) < 2 {
				err = fmt.Errorf("usage: rename <colIdx> <name>")
				break
			}
			var i int
			if i, err = strconv.Atoi(args[0]); err == nil {
				err = ws.RenameColumn(i, strings.Join(args[1:], " "))
			}
		case "tab":
			if len(args) != 1 {
				err = fmt.Errorf("usage: tab <name>")
				break
			}
			ws.SelectTab(args[0])
		case "tabs":
			for _, t := range ws.Tabs() {
				marker := " "
				if t == ws.ActiveTab() {
					marker = "*"
				}
				fmt.Fprintf(out, " %s %s (%d rows)\n", marker, t.Name, len(t.Rows))
			}
		case "summarize":
			if len(args) < 2 {
				err = fmt.Errorf("usage: summarize <groupCol> <agg> [agg...]")
				break
			}
			if _, err = ws.Summarize([]string{args[0]}, args[1:]...); err == nil {
				fmt.Fprint(out, ws.Render())
			}
		case "undo":
			if err = ws.Undo(); err == nil {
				fmt.Fprintln(out, "undone")
			}
		case "export":
			err = doExport(ws, args, out)
		case "save":
			if len(args) != 1 {
				err = fmt.Errorf("usage: save <file>")
				break
			}
			var data []byte
			if data, err = sys.SaveSession(); err == nil {
				err = os.WriteFile(args[0], data, 0o644)
			}
			if err == nil {
				fmt.Fprintf(out, "session saved to %s\n", args[0])
			}
		case "load":
			if len(args) != 1 {
				err = fmt.Errorf("usage: load <file>")
				break
			}
			var data []byte
			if data, err = os.ReadFile(args[0]); err == nil {
				err = sys.LoadSession(data)
			}
			if err == nil {
				fmt.Fprintf(out, "session restored; catalog has %d sources\n", sys.Catalog.Len())
			}
		case "effort":
			fmt.Fprintln(out, ws.Keys)
		case ":metrics", "metrics":
			fmt.Fprint(out, copycat.RenderMetrics(sys.Metrics()))
		case ":cache", "cache":
			fmt.Fprint(out, ws.CacheInfo())
		case ":trace", "trace":
			// :trace on | :trace off | :trace save <file>
			switch {
			case len(args) == 1 && args[0] == "on":
				sys.EnableTracing()
				fmt.Fprintln(out, "tracing on — spans record until :trace off or :trace save")
			case len(args) == 1 && args[0] == "off":
				sys.DisableTracing()
				fmt.Fprintln(out, "tracing off; trace discarded")
			case len(args) == 2 && args[0] == "save":
				if !sys.Tracing() {
					err = fmt.Errorf("tracing is off (use `:trace on` first)")
					break
				}
				var f *os.File
				if f, err = os.Create(args[1]); err == nil {
					err = sys.TraceTo(f)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err == nil {
					fmt.Fprintf(out, "trace written to %s (load in chrome://tracing)\n", args[1])
				}
			default:
				err = fmt.Errorf("usage: :trace on|off|save <file>")
			}
		case ":slo", "slo":
			fmt.Fprint(out, copycat.RenderSLO(sys.SLO()))
		case ":quality", "quality":
			fmt.Fprint(out, copycat.RenderQuality(sys.Quality()))
		case ":serve", "serve":
			// :serve <addr> | :serve off | :serve (status)
			switch {
			case len(args) == 1 && args[0] == "off":
				if telem == nil {
					err = fmt.Errorf("telemetry server not running")
					break
				}
				stopServe()
				fmt.Fprintln(out, "telemetry server stopped")
			case len(args) == 1:
				if telem != nil {
					err = fmt.Errorf("already serving on %s (use `:serve off` first)", telem.Addr())
					break
				}
				ctx, cancel := context.WithCancel(context.Background())
				if telem, err = sys.Serve(ctx, args[0]); err != nil {
					cancel()
					telem = nil
					break
				}
				srv := telem
				telemStop = func() { cancel(); srv.Wait() }
				fmt.Fprintf(out, "telemetry server on http://%s — /metrics /healthz /readyz /slo /trace/stream /decisions /debug/pprof\n", telem.Addr())
			case len(args) == 0 && telem != nil:
				fmt.Fprintf(out, "serving on http://%s\n", telem.Addr())
			default:
				err = fmt.Errorf("usage: :serve <addr> | :serve off")
			}
		case ":session", "session":
			// :session | :session new [tenant] | :session attach <id> |
			// :session list | :session evict <id> | :session store <dir>
			switch {
			case len(args) == 0:
				if hosted {
					fmt.Fprintf(out, "session %s (tenant %s, hosted)\n", sys.Session.ID(), sys.Session.Tenant())
				} else {
					fmt.Fprintln(out, "session local (standalone)")
				}
			case args[0] == "store" && len(args) == 2:
				// Must land before the host exists: the store is wired in
				// when the first `:session new` builds the manager.
				if host != nil {
					err = fmt.Errorf("host already running; :session store must come before the first :session new")
					break
				}
				storeDir = args[1]
				fmt.Fprintf(out, "session store set to %s — the host will persist snapshots there\n", storeDir)
			case args[0] == "new" && len(args) <= 2:
				if host == nil {
					if storeDir != "" {
						if host, err = copycat.NewDurableDemoHost(cfg, copycat.SessionConfig{}, storeDir); err != nil {
							break
						}
						if recovered := host.Manager.Stats().Recovered; recovered > 0 {
							fmt.Fprintf(out, "recovered %d sessions from %s (attach by id)\n", recovered, storeDir)
						}
					} else {
						host = copycat.NewDemoHost(cfg, copycat.SessionConfig{})
					}
				}
				tenant := "default"
				if len(args) == 2 {
					tenant = args[1]
				}
				var ns *copycat.System
				if ns, err = host.Create(tenant); err != nil {
					break
				}
				rebind(ns)
				hosted = true
				fmt.Fprintf(out, "session %s created (tenant %s) — workspace switched\n", sys.Session.ID(), tenant)
			case args[0] == "attach" && len(args) == 2:
				if host == nil {
					err = fmt.Errorf("no hosted sessions yet (use `:session new`)")
					break
				}
				var ns *copycat.System
				if ns, err = host.Attach(args[1]); err != nil {
					break
				}
				rebind(ns)
				hosted = true
				fmt.Fprintf(out, "attached to session %s — workspace switched\n", sys.Session.ID())
			case args[0] == "list":
				if host == nil {
					fmt.Fprintln(out, "  local (standalone); no hosted sessions yet")
					break
				}
				for _, info := range host.Manager.List() {
					marker := " "
					if hosted && info.ID == sys.Session.ID() {
						marker = "*"
					}
					fmt.Fprintf(out, " %s %s\n", marker, info)
				}
				st := host.Manager.Stats()
				fmt.Fprintf(out, "  resident %d/%d (%dB); evictions=%d reloads=%d shed=%d\n",
					st.Resident, st.Sessions, st.ResidentBytes, st.Evictions, st.Reloads, st.Rejected)
			case args[0] == "evict" && len(args) == 2:
				if host == nil {
					err = fmt.Errorf("no hosted sessions yet (use `:session new`)")
					break
				}
				if err = host.Manager.Evict(args[1]); err == nil {
					fmt.Fprintf(out, "session %s evicted to its snapshot\n", args[1])
				}
			default:
				err = fmt.Errorf("usage: :session [new [tenant] | attach <id> | list | evict <id> | store <dir>]")
			}
		case ":incidents", "incidents":
			// :incidents | :incidents <id>
			rec := sys.FlightRecorder()
			switch {
			case len(args) == 0:
				list := rec.Incidents()
				if len(list) == 0 {
					fmt.Fprintln(out, "no incidents captured (flight recorder is armed)")
					break
				}
				for _, s := range list {
					fmt.Fprintf(out, "  %s  %-18s  %s\n", s.ID, s.Trigger, s.Reason)
				}
				fmt.Fprintln(out, "use `:incidents <id>` for the post-mortem timeline")
			case len(args) == 1:
				inc, ok := rec.Incident(args[0])
				if !ok {
					err = fmt.Errorf("unknown incident %q (try `:incidents`)", args[0])
					break
				}
				fmt.Fprint(out, copycat.RenderIncident(inc))
			default:
				err = fmt.Errorf("usage: :incidents [id]")
			}
		case ":why", "why":
			needle := strings.Join(args, " ")
			lines := sys.Why(needle)
			if len(lines) == 0 {
				fmt.Fprintln(out, "no decisions recorded for that candidate")
			}
			for _, l := range lines {
				fmt.Fprintf(out, "  %s\n", l)
			}
		default:
			err = fmt.Errorf("unknown command %q (try `help`)", cmd)
		}
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
		prompt()
	}
	return scanner.Err()
}

func withIndex(args []string, fn func(int) error) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: <command> <index>")
	}
	i, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	return fn(i)
}

func splitPipe(s string) []string {
	var out []string
	for _, part := range strings.Split(s, "|") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func doExport(ws *copycat.Workspace, args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: export kml|geojson|xml|csv <file>")
	}
	rel := ws.ActiveTab().Relation()
	var data string
	var err error
	switch args[0] {
	case "kml":
		data, err = copycat.KML(rel)
	case "geojson":
		data, err = copycat.GeoJSON(rel)
	case "xml":
		data = copycat.XML(rel)
	case "csv":
		data = copycat.CSV(rel)
	default:
		return fmt.Errorf("unknown format %q", args[0])
	}
	if err != nil {
		return err
	}
	if err := os.WriteFile(args[1], []byte(data), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d bytes to %s\n", len(data), args[1])
	return nil
}

func renderPage(d *docmodel.Document) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", d.URL, d.Title)
	for i, ch := range d.Chunks() {
		if i >= 25 {
			b.WriteString("  ...\n")
			break
		}
		fmt.Fprintf(&b, "  %s\n", ch.Text)
	}
	return b.String()
}

func printHelp(out io.Writer) {
	fmt.Fprint(out, `commands:
  sites                      list browsable sites
  open <site>                open a site in the browser
  page                       show the current page's text
  copy <v1> | <v2> | ...     copy cells from the current page
  copysheet r0 c0 r1 c1      copy a range from the contacts spreadsheet
  paste                      paste the clipboard into the active tab
  show                       render the workspace grid
  accept / reject            accept or reject the row suggestions
  extend                     generalize across the site's other pages
  mode <m>                   import | integration | cleaning
  cols                       list column auto-completions
  acceptcol/rejectcol <i>    act on a column completion
  explain <row>              tuple explanation (provenance)
  types                      recognized semantic types per column
  rename <col> <name>        set a column header
  tab <name> / tabs          switch or list tabs
  summarize <col> <agg>...   group-by aggregate into a summary tab
  undo                       undo the last mutating action
  export <fmt> <file>        kml | geojson | xml | csv
  save <file>                save the session (gzip-framed JSON snapshot)
  load <file>                restore a saved session
  effort                     keystroke ledger
  :metrics                   unified metrics (counters, cache gauges, stage latencies)
  :cache                     plan-result cache state (entries, hit rate, reuse counters)
  :trace on|off|save <file>  record pipeline spans; save as Chrome trace JSON
  :why [candidate]           decision log: why candidates were pruned/suggested/rejected
  :serve <addr>|off          live telemetry server (/metrics /healthz /trace/stream ...)
  :slo                       suggestion-refresh latency objective: burn rates and alerts
  :quality                   live suggestion quality: acceptance rate, rank of accepted, rounds to accept
  :incidents [id]            flight-recorder incidents: list bundles or render one post-mortem timeline
  :session [sub]             multi-tenant session hosting: new [tenant] | attach <id> | list | evict <id> | store <dir>
  quit
`)
}
