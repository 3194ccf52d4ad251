package server

import (
	"net/http"
	"runtime"
	"runtime/debug"

	"repro/internal/cluster"
	"repro/internal/codegen"
)

// EngineInterp names the execution engine in /v1/version, on every trace
// root's "engine" attribute and in the advisor's outcome records: optd runs
// every pipeline on the interpreted GOSpeL engine.
const EngineInterp = "interp"

// VersionResponse is the GET /v1/version body: enough identity to tell
// which build and configuration answered — the same facts the
// optd_build_info gauge exposes, in queryable form.
type VersionResponse struct {
	Service string `json:"service"`
	// Module is the main module's version as stamped by the Go toolchain
	// ("(devel)" for a plain source build).
	Module string `json:"module"`
	// Go is the toolchain that built the binary.
	Go string `json:"go"`
	// CodegenVersion is the code generator's output-format version.
	CodegenVersion string `json:"codegen_version"`
	// VNodes is the consistent-hash ring's virtual-node count per member.
	VNodes int `json:"vnodes"`
	// Engine is the execution engine; always EngineInterp.
	Engine string `json:"engine"`
	// Node is the cluster advertise address; empty on a single node.
	Node string `json:"node,omitempty"`
}

func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "(devel)"
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) error {
	v := VersionResponse{
		Service:        "optd",
		Module:         moduleVersion(),
		Go:             runtime.Version(),
		CodegenVersion: codegen.Version,
		VNodes:         cluster.DefaultVNodes,
		Engine:         EngineInterp,
	}
	if s.cluster != nil {
		v.Node = s.cluster.Self()
	}
	writeJSON(w, http.StatusOK, v)
	return nil
}
