package simuser

import (
	"testing"

	"copycat/internal/webworld"
)

func world() *webworld.World { return webworld.Generate(webworld.DefaultConfig()) }

func TestRunShelterTaskSavings(t *testing.T) {
	// E1: the SCP session must save ≥75% of keystrokes vs. manual
	// copy-and-paste (the Karma claim) on the clean table site.
	res, err := RunShelterTask(world(), webworld.StyleTable)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != len(world().Shelters) {
		t.Errorf("final rows = %d", res.Rows)
	}
	if res.Cols < 6 { // Name, Street, City, Status?, Zip, Lat, Lon
		t.Errorf("final cols = %d", res.Cols)
	}
	if res.SavingsVsCopying < 0.75 {
		t.Errorf("savings vs copy-paste = %.2f want ≥ 0.75 (scp=%d manual=%d)",
			res.SavingsVsCopying, res.SCPKeystrokes, res.ManualCopyPaste)
	}
	if res.SavingsVsTyping < 0.75 {
		t.Errorf("savings vs typing = %.2f want ≥ 0.75", res.SavingsVsTyping)
	}
}

func TestRunShelterTaskAcrossStyles(t *testing.T) {
	for _, style := range []webworld.SiteStyle{webworld.StyleTable, webworld.StylePaged} {
		res, err := RunShelterTask(world(), style)
		if err != nil {
			t.Fatalf("style %s: %v", style, err)
		}
		if res.SavingsVsCopying < 0.5 {
			t.Errorf("style %s savings = %.2f", style, res.SavingsVsCopying)
		}
	}
}

func TestExamplesNeededLadder(t *testing.T) {
	// E3: harder page classes need at least as many examples as the easy
	// table page, which needs very few.
	w := world()
	tableN, ok := ExamplesNeeded(w, webworld.StyleTable, 10)
	if !ok {
		t.Fatal("table style never converged")
	}
	if tableN > 2 {
		t.Errorf("table style needed %d examples, want ≤ 2", tableN)
	}
	groupedN, ok := ExamplesNeeded(w, webworld.StyleGrouped, 12)
	if !ok {
		t.Log("grouped style did not converge in 12 examples (acceptable: ambiguity)")
	}
	if ok && groupedN < tableN {
		t.Errorf("grouped (%d) should need ≥ examples than table (%d)", groupedN, tableN)
	}
	pagedN, ok := ExamplesNeeded(w, webworld.StylePaged, 10)
	if !ok {
		t.Fatal("paged style never converged")
	}
	if pagedN > 4 {
		t.Errorf("paged style needed %d examples", pagedN)
	}
	// Prose (no repeating tag structure) is the hard end of the ladder:
	// the sequential-covering fallback needs one example per distinct
	// value shape.
	proseN, ok := ExamplesNeeded(w, webworld.StyleProse, 15)
	if !ok {
		t.Fatal("prose style never converged in 15 examples")
	}
	if proseN <= pagedN {
		t.Errorf("prose (%d) should need more examples than structured pages (%d)", proseN, pagedN)
	}
}

func TestBuildFamilyStructure(t *testing.T) {
	f := BuildFamily(5)
	if len(f.Sources) != 5 {
		t.Fatalf("sources = %d", len(f.Sources))
	}
	// Before training, top queries exist for each source — and every one
	// of them prefers the (wrong) stale-mirror route.
	for _, s := range f.Sources {
		qs, err := f.Learner.TopQueriesCtx(nil, []string{s, f.Target}, 2)
		if err != nil || len(qs) < 2 {
			t.Fatalf("source %s: %d queries, err %v", s, len(qs), err)
		}
		if qs[0].Cost >= qs[1].Cost {
			t.Errorf("stale route should start cheaper: %f vs %f", qs[0].Cost, qs[1].Cost)
		}
		good, err := f.prefersGood(s)
		if err != nil {
			t.Fatal(err)
		}
		if good {
			t.Errorf("source %s should start on the bad route", s)
		}
	}
}

func TestSingleQueryConvergesInOneFeedback(t *testing.T) {
	// The headline E2 claim: one item of feedback fixes a single query.
	f := BuildFamily(6)
	s := f.Sources[0]
	if _, err := f.TrainOn(s); err != nil {
		t.Fatal(err)
	}
	good, err := f.prefersGood(s)
	if err != nil {
		t.Fatal(err)
	}
	if !good {
		t.Error("one feedback item should fix the query's ranking")
	}
}

func TestFamilyGeneralization(t *testing.T) {
	// Feedback on a handful of queries ranks the whole family.
	f := BuildFamily(20)
	for i := 0; i < 10; i++ {
		if _, err := f.TrainOn(f.Sources[i]); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := f.FamilyAccuracy(f.Sources[10:])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("held-out family accuracy = %.2f want ≥ 0.9", acc)
	}
}

func TestMeasureConvergence(t *testing.T) {
	res, err := MeasureConvergence(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleQueryFeedback != 1 {
		t.Errorf("single-query feedback = %d want 1", res.SingleQueryFeedback)
	}
	if res.FamilyAccuracy < 0.9 {
		t.Errorf("family accuracy = %.2f", res.FamilyAccuracy)
	}
	if res.TrainedOn != 10 {
		t.Errorf("trained on = %d", res.TrainedOn)
	}
}

func TestFamilyAccuracyEmpty(t *testing.T) {
	f := BuildFamily(2)
	if acc, err := f.FamilyAccuracy(nil); err != nil || acc != 0 {
		t.Error("empty accuracy should be 0, nil")
	}
}
