package sim

import (
	"fmt"
	"strconv"
	"strings"

	"nbtinoc/internal/noc"
)

// Mesh is an explicit mesh geometry. Unlike the core-count shorthand
// (MeshSide), it admits rectangular meshes, which is how the CLIs'
// -mesh WxH flag reaches the harness.
type Mesh struct {
	Width, Height int
}

// ParseMesh parses the CLI "WxH" form, e.g. "16x16" or "8x4".
func ParseMesh(s string) (Mesh, error) {
	w, h, ok := strings.Cut(s, "x")
	if !ok {
		return Mesh{}, fmt.Errorf("sim: mesh %q not in WxH form (e.g. 16x16)", s)
	}
	width, werr := strconv.Atoi(w)
	height, herr := strconv.Atoi(h)
	if werr != nil || herr != nil {
		return Mesh{}, fmt.Errorf("sim: mesh %q not in WxH form (e.g. 16x16)", s)
	}
	m := Mesh{Width: width, Height: height}
	if err := m.Validate(); err != nil {
		return Mesh{}, err
	}
	return m, nil
}

// SquareMesh returns the square geometry for a core count, rejecting
// non-square values (the historical cores shorthand).
func SquareMesh(cores int) (Mesh, error) {
	side, err := MeshSide(cores)
	if err != nil {
		return Mesh{}, err
	}
	return Mesh{Width: side, Height: side}, nil
}

// Cores returns the tile count.
func (m Mesh) Cores() int { return m.Width * m.Height }

// Square reports whether the geometry is a square mesh.
func (m Mesh) Square() bool { return m.Width == m.Height }

// String renders the geometry in the WxH form ParseMesh accepts.
func (m Mesh) String() string { return fmt.Sprintf("%dx%d", m.Width, m.Height) }

// Validate rejects degenerate geometries.
func (m Mesh) Validate() error {
	if m.Width < 1 || m.Height < 1 {
		return fmt.Errorf("sim: mesh %s needs positive dimensions", m)
	}
	return nil
}

// Label names the geometry in table rows: the historical "%dcore" form
// for square meshes, so existing golden outputs stay byte-identical,
// and the WxH form otherwise.
func (m Mesh) Label() string {
	if m.Square() {
		return fmt.Sprintf("%dcore", m.Cores())
	}
	return m.String()
}

// Config returns the paper's router/technology configuration on this
// geometry — BaseConfig without the square restriction. The mesh
// dimensions land in noc.Config and therefore in every content-
// addressed cache key derived from a Spec.
func (m Mesh) Config(vcsPerVNet int) (noc.Config, error) {
	if err := m.Validate(); err != nil {
		return noc.Config{}, err
	}
	return m.config(vcsPerVNet), nil
}

// config is Config on a geometry already validated.
func (m Mesh) config(vcsPerVNet int) noc.Config {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = m.Width, m.Height
	cfg.VCsPerVNet = vcsPerVNet
	return cfg
}
