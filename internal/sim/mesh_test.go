package sim

import (
	"errors"
	"testing"
)

func TestParseMesh(t *testing.T) {
	cases := []struct {
		in   string
		want Mesh
	}{
		{"16x16", Mesh{16, 16}},
		{"8x4", Mesh{8, 4}},
		{"1x1", Mesh{1, 1}},
	}
	for _, tc := range cases {
		got, err := ParseMesh(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMesh(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "16", "x", "4x", "x4", "0x4", "4x0", "-2x4", "axb", "4X4"} {
		if _, err := ParseMesh(bad); err == nil {
			t.Errorf("ParseMesh(%q) accepted", bad)
		}
	}
}

func TestMeshHelpers(t *testing.T) {
	m := Mesh{Width: 8, Height: 4}
	if m.Cores() != 32 || m.Square() || m.String() != "8x4" || m.Label() != "8x4" {
		t.Errorf("rectangular helpers wrong: %+v", m)
	}
	sq := Mesh{Width: 4, Height: 4}
	if !sq.Square() || sq.Label() != "16core" {
		t.Errorf("square Label = %q, want 16core", sq.Label())
	}
	if _, err := SquareMesh(6); err == nil {
		t.Error("SquareMesh(6) accepted")
	}
	if got, err := SquareMesh(16); err != nil || got != sq {
		t.Errorf("SquareMesh(16) = %v, %v", got, err)
	}
}

func TestMeshConfig(t *testing.T) {
	cfg, err := Mesh{Width: 16, Height: 8}.Config(2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != 16 || cfg.Height != 8 || cfg.VCsPerVNet != 2 {
		t.Errorf("MeshConfig = %dx%d vcs %d", cfg.Width, cfg.Height, cfg.VCsPerVNet)
	}
	if _, err := (Mesh{}).Config(2); err == nil {
		t.Error("zero mesh accepted")
	}
}

func TestSyntheticTableMeshOverride(t *testing.T) {
	opt := DefaultTableOptions()
	opt.Warmup, opt.Measure = 200, 1_000
	opt.Rates = []float64{0.1}
	opt.Meshes = []Mesh{{Width: 4, Height: 2}}
	tbl, err := RunSyntheticTable(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tbl.Rows))
	}
	if tbl.Rows[0].Scenario != "4x2-inj0.10" || tbl.Rows[0].Cores != 8 {
		t.Errorf("mesh row = %q cores %d", tbl.Rows[0].Scenario, tbl.Rows[0].Cores)
	}
}

// TestScenarioMeshGeometry: a rectangular geometry from Mesh.Config
// validates and runs on every node; a generator geometry that disagrees
// with the mesh, or a half-specified mesh, is rejected.
func TestScenarioMeshGeometry(t *testing.T) {
	cfg, err := (Mesh{Width: 8, Height: 4}).Config(2)
	if err != nil {
		t.Fatal(err)
	}
	s := quickSpec()
	s.Net = cfg
	s.Gen.Width, s.Gen.Height = 8, 4
	s.Warmup, s.Measure = 200, 1_000
	if err := s.Validate(); err != nil {
		t.Fatalf("8x4 spec rejected: %v", err)
	}
	res := compute(t, s)
	if res.Nodes != 32 {
		t.Errorf("8x4 run simulated %d nodes, want 32", res.Nodes)
	}

	// The generator geometry must agree with the mesh's.
	bad := s
	bad.Gen.Width, bad.Gen.Height = 4, 8
	var errs SpecErrors
	if err := bad.Validate(); !errors.As(err, &errs) {
		t.Errorf("generator/mesh geometry mismatch: got %v, want SpecErrors", err)
	} else if !hasField(errs, "gen") {
		t.Errorf("generator/mesh geometry mismatch not tagged \"gen\": %v", errs)
	}

	// Half-specified geometry is rejected.
	half := s
	half.Net.Height, half.Gen.Height = 0, 0
	if err := half.Validate(); err == nil {
		t.Error("width without height accepted")
	}
}

func hasField(errs SpecErrors, field string) bool {
	for _, e := range errs {
		if e.Field == field {
			return true
		}
	}
	return false
}
