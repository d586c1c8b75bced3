package mapfile_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/mapfile"
	"repro/internal/pattern"
	"repro/internal/rdf"
	"repro/internal/workload"
)

// Save then Load must preserve the system: same stored data, mappings and
// certain answers.
func TestSaveLoadRoundTrip(t *testing.T) {
	sys := workload.Figure1System()
	ns := workload.FilmNamespaces()
	dir := t.TempDir()
	path, err := mapfile.Save(sys, ns, dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := mapfile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.StoredDatabase().Equal(sys.StoredDatabase()) {
		t.Error("stored database differs after round trip")
	}
	if len(loaded.G) != len(sys.G) || len(loaded.E) != len(sys.E) {
		t.Errorf("mappings differ: G %d/%d, E %d/%d",
			len(loaded.G), len(sys.G), len(loaded.E), len(sys.E))
	}
	// and the Listing 1 answers survive
	got, err := chase.CertainAnswers(loaded, workload.Example1Query())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 6 {
		t.Errorf("answers after round trip = %d, want 6", got.Len())
	}
}

// Explicit (non-sameAs) equivalences get eq lines.
func TestSaveExplicitEquivalences(t *testing.T) {
	sys := workload.HopSystem(1, 2, 1)
	_ = sys.AddEquivalence(workload.LODEntity(0, 0), workload.LODEntity(1, 0))
	dir := t.TempDir()
	path, err := mapfile.Save(sys, workload.FilmNamespaces(), dir)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := os.ReadFile(path)
	if !strings.Contains(string(text), "eq <") {
		t.Errorf("expected eq line in:\n%s", text)
	}
	loaded, _, err := mapfile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.E) != 1 {
		t.Errorf("equivalences after load = %d", len(loaded.E))
	}
}

func TestLoadHandWritten(t *testing.T) {
	dir := t.TempDir()
	ttlA := `@prefix ex: <http://example.org/> .
ex:a ex:p ex:b .`
	ttlB := `@prefix ex: <http://example.org/> .
ex:x ex:q ex:y .`
	if err := os.WriteFile(filepath.Join(dir, "a.ttl"), []byte(ttlA), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.ttl"), []byte(ttlB), 0o644); err != nil {
		t.Fatal(err)
	}
	system := `# hand-written
prefix ex: <http://example.org/>
peer peerA a.ttl
peer peerB b.ttl
gma peerA peerB : SELECT ?s ?o WHERE { ?s ex:p ?o } ~> SELECT ?s ?o WHERE { ?s ex:q ?o }
eq ex:a ex:x
sameas harvest
`
	path := filepath.Join(dir, "system.rps")
	if err := os.WriteFile(path, []byte(system), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, ns, err := mapfile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Peers()) != 2 || len(sys.G) != 1 || len(sys.E) != 1 {
		t.Fatalf("loaded shape wrong: peers=%d G=%d E=%d", len(sys.Peers()), len(sys.G), len(sys.E))
	}
	if _, ok := ns.Lookup("ex"); !ok {
		t.Error("prefix not loaded")
	}
	// the mapping works end to end: ex:a ex:p ex:b implies ex:a ex:q ex:b,
	// and eq a≡x copies to ex:x ex:q ex:b
	q := pattern.MustQuery([]string{"s", "o"}, pattern.GraphPattern{
		pattern.TP(pattern.V("s"), pattern.C(rdf.IRI(ns.MustExpand("ex:q"))), pattern.V("o")),
	})
	got, err := chase.CertainAnswers(sys, q)
	if err != nil {
		t.Fatal(err)
	}
	// (x,y) stored, (a,b) mapped, (x,b) and (a,y) via the a≡x copies
	if got.Len() != 4 {
		t.Errorf("answers = %v", got.Sorted())
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []string{
		"peer onlyname",
		"peer p missing.ttl",
		"gma a b SELECT ?x WHERE { ?x ?p ?o }", // missing colon
		"gma a : SELECT ?x WHERE { ?x ?p ?o } ~> SELECT ?x WHERE { ?x ?p ?o }", // one peer name
		"eq onlyone",
		"sameas nope",
		"bogus directive",
		"prefix broken",
	}
	for i, c := range cases {
		p := write("bad"+string(rune('0'+i))+".rps", c+"\n")
		if _, _, err := mapfile.Load(p); err == nil {
			t.Errorf("case %q: expected error", c)
		}
	}
	if _, _, err := mapfile.Load(filepath.Join(dir, "nonexistent.rps")); err == nil {
		t.Error("missing file should error")
	}
}
