package cut

import (
	"encoding/json"
	"io"
)

// Summary is a serializable description of a plan, consumed by external
// tooling (dashboards, notebooks) through cmd/paths -json.
type Summary struct {
	NumQubits       int          `json:"num_qubits"`
	CutPos          int          `json:"cut_pos"`
	NumPaths        uint64       `json:"num_paths"`
	NumPathsExact   bool         `json:"num_paths_exact"`
	Log2Paths       float64      `json:"log2_paths"`
	NumCuts         int          `json:"num_cuts"`
	NumBlocks       int          `json:"num_blocks"`
	NumSeparateCuts int          `json:"num_separate_cuts"`
	Cuts            []CutSummary `json:"cuts"`
}

// CutSummary describes one cut point.
type CutSummary struct {
	Label       string  `json:"label"`
	Rank        int     `json:"rank"`
	Block       bool    `json:"block"`
	NumGates    int     `json:"num_gates"`
	LowerQubits []int   `json:"lower_qubits"`
	UpperQubits []int   `json:"upper_qubits"`
	TopSigma    float64 `json:"top_sigma"`
}

// Summarize builds the serializable description of the plan.
func (p *Plan) Summarize() Summary {
	n, exact := p.NumPaths()
	s := Summary{
		NumQubits:       p.NumQubits,
		CutPos:          p.Partition.CutPos,
		NumPaths:        n,
		NumPathsExact:   exact,
		Log2Paths:       p.Log2Paths(),
		NumCuts:         len(p.Cuts),
		NumBlocks:       p.NumBlocks(),
		NumSeparateCuts: p.NumSeparateCuts(),
	}
	for _, c := range p.Cuts {
		cs := CutSummary{
			Label:       c.Label,
			Rank:        c.Rank(),
			Block:       c.IsBlock(),
			NumGates:    len(c.GateIndices),
			LowerQubits: c.LowerQubits,
			UpperQubits: c.UpperQubits,
		}
		if len(c.Terms) > 0 {
			cs.TopSigma = c.Terms[0].Sigma
		}
		s.Cuts = append(s.Cuts, cs)
	}
	return s
}

// WriteJSON writes the summary as indented JSON.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Summarize())
}
