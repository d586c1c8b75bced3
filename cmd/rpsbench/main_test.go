package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/federation"
)

func TestRunSelectedExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "e1,e6,e7", true, federation.Options{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "== E1:") || !strings.Contains(s, "== E6:") || !strings.Contains(s, "== E7:") {
		t.Errorf("missing tables:\n%s", s)
	}
	if strings.Contains(s, "MISMATCH") {
		t.Errorf("reproduction mismatch reported:\n%s", s)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "e99", true, federation.Options{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}
