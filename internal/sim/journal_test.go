package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// readLines returns the journal's newline-terminated lines.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

// An interrupted append leaves a torn trailing fragment without its
// newline. Resume must truncate it away and continue the journal from
// the last intact line — not glue the next append onto the fragment,
// which would corrupt a good entry too.
func TestJournalTornTailTruncateAndContinue(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	opts := testOpts()
	opts.Journal = path
	specA := Spec{Bench: "gap", Scheme: core.PosSel}
	specB := Spec{Bench: "gzip", Scheme: core.PosSel}

	e1 := NewEngine(opts)
	if _, err := e1.Run(context.Background(), specA); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"bench":"gap","scheme":"PosSel","in`) // torn, no newline
	f.Close()

	e2 := NewEngine(opts)
	if got := e2.JournalSkipped(); got != 1 {
		t.Errorf("skipped %d journal lines, want 1 (the torn tail)", got)
	}
	if _, err := e2.Run(context.Background(), specA); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(context.Background(), specB); err != nil {
		t.Fatal(err)
	}
	if snap := e2.Snapshot(); snap.Resumed != 1 {
		t.Errorf("resumed %d runs, want 1", snap.Resumed)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	lines := readLines(t, path)
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines after repair+append, want 2:\n%s",
			len(lines), strings.Join(lines, "\n"))
	}
	for i, l := range lines {
		var je journalEntry
		if err := json.Unmarshal([]byte(l), &je); err != nil {
			t.Errorf("line %d no longer parses after repair: %v\n%s", i, err, l)
		}
	}

	// The repaired journal resumes both runs with nothing skipped.
	e3 := NewEngine(opts)
	defer e3.Close()
	if got := e3.JournalSkipped(); got != 0 {
		t.Errorf("skipped %d lines on the repaired journal, want 0", got)
	}
	if _, err := e3.RunAll(context.Background(), []Spec{specA, specB}); err != nil {
		t.Fatal(err)
	}
	if snap := e3.Snapshot(); snap.Resumed != 2 {
		t.Errorf("resumed %d runs from the repaired journal, want 2", snap.Resumed)
	}
}

// A final line missing its newline is an unfinished write even when its
// bytes happen to parse: the entry is not trusted, the line is cut, and
// the run re-simulates and re-journals cleanly.
func TestJournalUnterminatedTailNotTrusted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	opts := testOpts()
	opts.Journal = path
	spec := Spec{Bench: "gap", Scheme: core.PosSel}

	e1 := NewEngine(opts)
	if _, err := e1.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(len(data)-1)); err != nil { // drop the '\n'
		t.Fatal(err)
	}

	e2 := NewEngine(opts)
	if got := e2.JournalSkipped(); got != 1 {
		t.Errorf("skipped %d lines, want 1 (the unterminated tail)", got)
	}
	if _, err := e2.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if snap := e2.Snapshot(); snap.Resumed != 0 {
		t.Errorf("resumed %d runs from an unterminated line, want 0", snap.Resumed)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, path); len(got) != 1 {
		t.Errorf("journal has %d lines after re-simulation, want 1", len(got))
	}
}

// Corrupt lines with intact entries after them stay in place: the tail
// repair must never discard good records behind mid-file garbage.
func TestJournalMidFileCorruptionSkippedNotTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	opts := testOpts()
	opts.Journal = path
	specA := Spec{Bench: "gap", Scheme: core.PosSel}
	specB := Spec{Bench: "gzip", Scheme: core.PosSel}

	e1 := NewEngine(opts)
	if _, err := e1.RunAll(context.Background(), []Spec{specA, specB}); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	// Splice garbage between the two intact entries.
	lines := readLines(t, path)
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(lines))
	}
	spliced := lines[0] + "\n{corrupt mid-file line}\n" + lines[1] + "\n"
	if err := os.WriteFile(path, []byte(spliced), 0o644); err != nil {
		t.Fatal(err)
	}

	// Garbage line still present (three lines), both real entries load.
	if got := readLines(t, path); len(got) != 3 {
		t.Fatalf("journal has %d lines, want 3 (good, corrupt, good)", len(got))
	}
	e3 := NewEngine(opts)
	defer e3.Close()
	if got := e3.JournalSkipped(); got != 1 {
		t.Errorf("skipped %d lines, want 1", got)
	}
	if _, err := e3.RunAll(context.Background(), []Spec{specA, specB}); err != nil {
		t.Fatal(err)
	}
	if snap := e3.Snapshot(); snap.Resumed != 2 {
		t.Errorf("resumed %d runs, want 2", snap.Resumed)
	}
	if got := readLines(t, path); len(got) != 3 {
		t.Errorf("pure resume rewrote the journal: %d lines, want 3", len(got))
	}
}
