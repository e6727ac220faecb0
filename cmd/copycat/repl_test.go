package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"copycat/internal/persist"
)

// drive runs a scripted REPL session and returns its transcript.
func drive(t *testing.T, script string) string {
	t.Helper()
	var out strings.Builder
	if err := repl(42, strings.NewReader(script), &out); err != nil {
		t.Fatalf("repl: %v\n%s", err, out.String())
	}
	return out.String()
}

func TestReplFullSession(t *testing.T) {
	dir := t.TempDir()
	kml := filepath.Join(dir, "out.kml")
	sess := filepath.Join(dir, "session.snap")
	script := strings.Join([]string{
		"help",
		"sites",
		"open shelters",
		"page",
		"copy Sunset Recreation Center | 335 NW Copans Rd | Mangrove Lakes",
		"paste",
		"accept",
		"mode integration",
		"cols",
		"acceptcol 0", // geocoder
		"explain 0",
		"export kml " + kml,
		"save " + sess,
		"summarize City count",
		"tabs",
		"effort",
		"quit",
	}, "\n")
	out := drive(t, script)
	for _, want := range []string{
		"suggested rows",
		"tab committed as source",
		"Geocoder",
		"joined from",
		"wrote",
		"session saved",
		"Summary of Sheet1",
		"keystrokes=",
		"bye",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
	if data, err := os.ReadFile(kml); err != nil || !strings.Contains(string(data), "<Placemark>") {
		t.Errorf("kml export bad: %v", err)
	}
	// The saved file is the framed snapshot; its JSON names the tab.
	data, err := os.ReadFile(sess)
	if err == nil {
		data, err = persist.Decompress(data)
	}
	if err != nil || !strings.Contains(string(data), "Sheet1") {
		t.Errorf("session save bad: %v", err)
	}
}

func TestReplErrorsAreReportedNotFatal(t *testing.T) {
	out := drive(t, strings.Join([]string{
		"bogus-command",
		"open nope",
		"paste",
		"copy x",
		"acceptcol 0",
		"mode warp",
		"explain abc",
		"undo",
		"export pdf /tmp/x",
		"quit",
	}, "\n"))
	if n := strings.Count(out, "error:"); n < 8 {
		t.Errorf("want ≥8 reported errors, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "bye") {
		t.Error("session should survive to quit")
	}
}

func TestReplRejectAndUndo(t *testing.T) {
	out := drive(t, strings.Join([]string{
		"open shelters-grouped",
		"copy Sunset Recreation Center | 335 NW Copans Rd | Mangrove Lakes",
		"paste",
		"reject",
		"undo",
		"show",
		"quit",
	}, "\n"))
	if !strings.Contains(out, "next hypothesis") {
		t.Errorf("reject should advance hypotheses:\n%s", out)
	}
	if !strings.Contains(out, "undone") {
		t.Error("undo should work")
	}
}

func TestReplSpreadsheetFlow(t *testing.T) {
	out := drive(t, strings.Join([]string{
		"copysheet 1 0 2 5",
		"tab Contacts",
		"paste",
		"accept",
		"show",
		"quit",
	}, "\n"))
	if !strings.Contains(out, "copied spreadsheet range") {
		t.Errorf("spreadsheet copy failed:\n%s", out)
	}
	if !strings.Contains(out, "tab committed as source \"Contacts\"") {
		t.Errorf("contacts import failed:\n%s", out)
	}
}

func TestReplSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sess := filepath.Join(dir, "s.snap")
	// Session 1: import and save.
	drive(t, strings.Join([]string{
		"open shelters",
		"copy Sunset Recreation Center | 335 NW Copans Rd | Mangrove Lakes",
		"paste", "accept",
		"save " + sess,
		"quit",
	}, "\n"))
	// Session 2: load and verify the source is back.
	out := drive(t, strings.Join([]string{
		"load " + sess,
		"quit",
	}, "\n"))
	if !strings.Contains(out, "session restored") {
		t.Errorf("load failed:\n%s", out)
	}
	// Missing file reports an error, not a crash.
	out = drive(t, "load /nonexistent/file.json\nquit\n")
	if !strings.Contains(out, "error:") {
		t.Error("missing file should report an error")
	}
}

// TestReplHelpListsObservabilityCommands is the golden check on the
// help screen: every observability command must appear with a one-line
// description, so the surface stays discoverable as commands are added.
func TestReplHelpListsObservabilityCommands(t *testing.T) {
	out := drive(t, "help\nquit\n")
	for cmd, blurb := range map[string]string{
		":metrics":   "unified metrics",
		":cache":     "plan-result cache state",
		":trace":     "record pipeline spans",
		":why":       "decision log",
		":serve":     "live telemetry server",
		":slo":       "latency objective",
		":quality":   "live suggestion quality",
		":session":   "multi-tenant session hosting",
		":incidents": "flight-recorder incidents",
	} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			fields := strings.Fields(line)
			if len(fields) > 1 && strings.HasPrefix(fields[0], cmd) && strings.Contains(line, blurb) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("help is missing %q with description %q:\n%s", cmd, blurb, out)
		}
	}
	// ":help" is an accepted alias.
	if alias := drive(t, ":help\nquit\n"); !strings.Contains(alias, ":slo") {
		t.Error(":help alias should print the same screen")
	}
}

// TestReplSessionCommands walks the :session lifecycle: create two
// hosted sessions (importing into the first), list with the active
// marker, evict the idle one, fail to evict the pinned one, and attach
// back to the first with its workspace intact.
func TestReplSessionCommands(t *testing.T) {
	out := drive(t, strings.Join([]string{
		":session",
		":session list",
		":session new alice",
		"open shelters",
		"copy Sunset Recreation Center | 335 NW Copans Rd | Mangrove Lakes",
		"paste",
		"accept",
		":session new bob",
		":session list",
		":session evict s000001",
		":session attach s000001",
		":session",
		":session evict s000001", // pinned by this REPL: ErrBusy, not a crash
		":session attach nope",
		"tabs",
		"quit",
	}, "\n"))
	for _, want := range []string{
		"session local (standalone)",
		"no hosted sessions yet",
		"session s000001 created (tenant alice)",
		"tab committed as source",
		"session s000002 created (tenant bob)",
		"* s000002",
		"session s000001 evicted to its snapshot",
		"attached to session s000001 — workspace switched",
		"session s000001 (tenant alice, hosted)",
		"Sheet1 (30 rows)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "error:"); n < 2 {
		t.Errorf("pinned evict and bad attach should both report errors, got %d:\n%s", n, out)
	}
}

// TestReplDurableSessionStore walks the durable-host story across two
// REPL processes: the first sets a store dir, hosts two sessions, and
// checkpoints them on quit; the second, pointed at the same dir,
// recovers both and attaches one with its workspace intact.
func TestReplDurableSessionStore(t *testing.T) {
	dir := t.TempDir()
	out := drive(t, strings.Join([]string{
		":session store " + dir,
		":session new alice",
		"open shelters",
		"copy Sunset Recreation Center | 335 NW Copans Rd | Mangrove Lakes",
		"paste",
		"accept",
		":session new bob",
		":session evict s000001",
		"quit",
	}, "\n"))
	for _, want := range []string{
		"session store set to " + dir,
		"session s000001 created (tenant alice)",
		"tab committed as source",
		"session s000001 evicted to its snapshot",
		"checkpointed 1 sessions to " + dir, // bob; alice is already on disk
	} {
		if !strings.Contains(out, want) {
			t.Errorf("first transcript missing %q:\n%s", want, out)
		}
	}

	// Second REPL over the same directory: both sessions recover.
	out = drive(t, strings.Join([]string{
		":session store " + dir,
		":session new carol",
		":session attach s000001",
		"tabs",
		":session store " + dir, // too late: host already running
		"quit",
	}, "\n"))
	for _, want := range []string{
		"recovered 2 sessions from " + dir,
		"session s000003 created (tenant carol)",
		"attached to session s000001 — workspace switched",
		"Sheet1 (30 rows)",
		"error:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("second transcript missing %q:\n%s", want, out)
		}
	}
}

func TestReplServeAndSLOCommands(t *testing.T) {
	out := drive(t, strings.Join([]string{
		":slo",
		":serve 127.0.0.1:0",
		":serve",
		":serve 127.0.0.1:0", // double start is an error, not a crash
		":serve off",
		":serve off", // stop when stopped is an error, not a crash
		"quit",
	}, "\n"))
	for _, want := range []string{
		"objective: 99.00% of suggest.refresh under 25ms",
		"burn=",
		"telemetry server on http://127.0.0.1:",
		"serving on http://127.0.0.1:",
		"already serving",
		"telemetry server stopped",
		"not running",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
	// A server left running is shut down when the session ends.
	out = drive(t, ":serve 127.0.0.1:0\nquit\n")
	if !strings.Contains(out, "telemetry server on") {
		t.Errorf("serve failed:\n%s", out)
	}
}

// TestReplQualityCommand is the golden check on :quality — a session
// that accepts a row completion, rejects one column suggestion and
// accepts another must show up in the live quality report with the
// right per-surface counts, and undoing the column accept must land in
// the accepts-undone line.
func TestReplQualityCommand(t *testing.T) {
	out := drive(t, strings.Join([]string{
		":quality", // empty report up front, not an error
		"open shelters",
		"copy Sunset Recreation Center | 335 NW Copans Rd | Mangrove Lakes",
		"paste",
		"accept", // rows surface: 1 accept
		"mode integration",
		"cols",
		"rejectcol 0", // columns surface: 1 reject
		"acceptcol 0", // columns surface: 1 accept
		":quality",
		"undo", // reverses the column accept
		":quality",
		"quit",
	}, "\n"))
	for _, want := range []string{
		"suggestion quality: 0 accepts / 0 rejects (acceptance rate 0.000)",
		"suggestion quality: 2 accepts / 1 rejects",
		"columns 1/1",
		"rows 1/0",
		"rank of accepted",
		"rounds to accept",
		"accepts undone         1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestReplObservabilityCommands(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	out := drive(t, strings.Join([]string{
		":trace on",
		"open shelters",
		"copy Sunset Recreation Center | 335 NW Copans Rd | Mangrove Lakes",
		"paste",
		"accept",
		"mode integration",
		"cols",
		"rejectcol 0",
		":metrics",
		":why",
		":why Geocoder",
		":trace save " + trace,
		":trace off",
		"quit",
	}, "\n"))
	for _, want := range []string{
		"tracing on",
		"engine.service_calls",
		"cache.hit_rate",
		"latency.suggest.refresh",
		"suggested (rank",
		"rejected",
		"Geocoder",
		"trace written to " + trace,
		"tracing off",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil || !strings.Contains(string(data), "traceEvents") {
		t.Errorf("trace file bad: %v", err)
	}
	// Saving without tracing reports an error instead of writing garbage.
	out = drive(t, ":trace save "+filepath.Join(dir, "no.json")+"\nquit\n")
	if !strings.Contains(out, "error:") {
		t.Errorf("save without tracing should report an error:\n%s", out)
	}
}

// TestReplIncidentsCommand covers the :incidents surface on a healthy
// session: the empty list states the recorder is armed, an unknown id
// is an error, and extra arguments report usage instead of crashing.
func TestReplIncidentsCommand(t *testing.T) {
	out := drive(t, strings.Join([]string{
		":incidents",
		":incidents inc-000001-breaker-open",
		":incidents a b",
		"quit",
	}, "\n"))
	for _, want := range []string{
		"no incidents captured (flight recorder is armed)",
		"unknown incident",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "error:"); n < 2 {
		t.Errorf("unknown id and bad usage should both report errors, got %d:\n%s", n, out)
	}
}
