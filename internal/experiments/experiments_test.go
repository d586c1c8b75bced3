package experiments_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/workload"
)

// Every experiment must run and must not report a reproduction mismatch.
func checkTable(t *testing.T, tab *experiments.Table, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", tab.ID)
	}
	out := tab.Format()
	if !strings.Contains(out, tab.ID) {
		t.Errorf("%s: Format missing header:\n%s", tab.ID, out)
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "MISMATCH") || strings.Contains(n, "DISAGREEMENT") {
			t.Errorf("%s: %s\n%s", tab.ID, n, out)
		}
	}
}

func TestE1(t *testing.T) {
	tab, err := experiments.E1Listing1()
	checkTable(t, tab, err)
	if len(tab.Rows) != 6 {
		t.Errorf("E1 rows = %d, want 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] != "yes" {
			t.Errorf("unexpected tuple in E1: %v", row)
		}
	}
}

func TestE2(t *testing.T) {
	tab, err := experiments.E2Listing2()
	checkTable(t, tab, err)
	if tab.Rows[0][1] != "false" || tab.Rows[1][1] != "true" {
		t.Errorf("E2 verdicts = %v", tab.Rows)
	}
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "UNION") {
			found = true
		}
	}
	if !found {
		t.Errorf("E2 should display the rewritten UNION query:\n%s", tab.Format())
	}
}

func TestE3(t *testing.T) {
	tab, err := experiments.E3ChaseScaling([]int{4, 8})
	checkTable(t, tab, err)
	if len(tab.Rows) != 2 {
		t.Errorf("E3 rows = %d", len(tab.Rows))
	}
}

func TestE4(t *testing.T) {
	tab, err := experiments.E4Rewriting([]int{1, 2})
	checkTable(t, tab, err)
}

func TestE5(t *testing.T) {
	tab, err := experiments.E5NonFO([]int{2, 4})
	checkTable(t, tab, err)
}

func TestE6(t *testing.T) {
	tab, err := experiments.E6Stickiness()
	checkTable(t, tab, err)
	if len(tab.Rows) != 6 {
		t.Errorf("E6 rows = %d", len(tab.Rows))
	}
}

func TestE7(t *testing.T) {
	for _, fed := range []federation.Options{
		{},
		{Serial: true},
		{BatchSize: 8},
	} {
		tab, err := experiments.E7Federation([]int{2, 3}, []workload.Topology{workload.Chain, workload.Star}, fed)
		checkTable(t, tab, err)
		if len(tab.Rows) != 4 {
			t.Errorf("E7 rows = %d (options %+v)", len(tab.Rows), fed)
		}
	}
}

func TestE8(t *testing.T) {
	tab, err := experiments.E8Baselines([]int{1, 2})
	checkTable(t, tab, err)
	// hop 2 row: two-tier must be 0%, chase 100%
	row := tab.Rows[1]
	if row[3] != "0%" {
		t.Errorf("two-tier at 2 hops = %s, want 0%%", row[3])
	}
	if row[5] != "100%" {
		t.Errorf("chase completeness = %s", row[5])
	}
}

func TestAblations(t *testing.T) {
	tab, err := experiments.AblationEquiv([]int{4})
	checkTable(t, tab, err)
	tab, err = experiments.AblationChaseScheduling([]int{4})
	checkTable(t, tab, err)
	tab, err = experiments.AblationJoinOrder([]int{2000})
	checkTable(t, tab, err)
	tab, err = experiments.AblationFederationJoin([]int{500})
	checkTable(t, tab, err)
}

func TestE9(t *testing.T) {
	tab, err := experiments.E9Datalog([]int{4, 8})
	checkTable(t, tab, err)
	// the program is fixed-size: both rows report the same rule count
	if tab.Rows[0][1] != tab.Rows[1][1] {
		t.Errorf("Datalog program size should be data-independent: %v", tab.Rows)
	}
}

func TestE10(t *testing.T) {
	tab, err := experiments.E10Discovery([]float64{0, 0.4})
	checkTable(t, tab, err)
	// zero noise: perfect alignment and agreement
	if tab.Rows[0][1] != "1.00" || tab.Rows[0][2] != "1.00" || tab.Rows[0][6] != "100%" {
		t.Errorf("noise=0 row = %v", tab.Rows[0])
	}
}

func TestA5Incremental(t *testing.T) {
	tab, err := experiments.AblationIncremental([]int{10})
	checkTable(t, tab, err)
	if tab.Rows[0][5] != "true" {
		t.Errorf("incremental answers disagree: %v", tab.Rows[0])
	}
}
