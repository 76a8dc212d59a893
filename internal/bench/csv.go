package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV writers for every study, so plots and notebooks can consume the
// measurements without scraping the text tables.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// WriteTable1CSV emits the Table I measurements.
func WriteTable1CSV(w io.Writer, rows []*Table1Row) error {
	header := []string{
		"circuit",
		"schrodinger_full_s", "schrodinger_sim_s", "schrodinger_skipped",
		"standard_full_s", "standard_sim_s", "standard_timed_out", "standard_log2_paths",
		"joint_full_s", "joint_sim_s", "joint_log2_paths",
		"s_over_j", "t_over_j", "t_over_j_lower_bound",
	}
	var data [][]string
	for _, r := range rows {
		data = append(data, []string{
			r.Name,
			f(r.Schrodinger.FullTime.Mean), f(r.Schrodinger.SimTime.Mean), strconv.FormatBool(r.Schrodinger.Skipped),
			f(r.Standard.FullTime.Mean), f(r.Standard.SimTime.Mean), strconv.FormatBool(r.Standard.TimedOut), f(r.Standard.Paths),
			f(r.Joint.FullTime.Mean), f(r.Joint.SimTime.Mean), f(r.Joint.Paths),
			f(r.SJ), f(r.TJ), strconv.FormatBool(r.TJLowerBound),
		})
	}
	return writeCSV(w, header, data)
}

// WriteTable2CSV emits the Table II specifications.
func WriteTable2CSV(w io.Writer, rows []*Table2Row) error {
	header := []string{
		"circuit", "qubits", "cut_pos", "two_qubit_gates", "size_a", "size_b",
		"p_inter", "p_intra", "blocks", "separate_in_plan", "separate_cuts",
	}
	var data [][]string
	for _, r := range rows {
		data = append(data, []string{
			r.Name, strconv.Itoa(r.Qubits), strconv.Itoa(r.CutPos),
			strconv.Itoa(r.TwoQubitGates), strconv.Itoa(r.SizeA), strconv.Itoa(r.SizeB),
			f(r.PInter), f(r.PIntra),
			strconv.Itoa(r.Blocks), strconv.Itoa(r.SepInPlan), strconv.Itoa(r.SepCuts),
		})
	}
	return writeCSV(w, header, data)
}

// WriteFig3CSV emits the Fig. 3b series.
func WriteFig3CSV(w io.Writer, points []Fig3Point) error {
	header := []string{"depth", "standard_paths", "joint_paths"}
	var data [][]string
	for _, p := range points {
		data = append(data, []string{
			strconv.Itoa(p.Depth),
			strconv.FormatUint(p.StandardPaths, 10),
			strconv.FormatUint(p.JointPaths, 10),
		})
	}
	return writeCSV(w, header, data)
}

// WriteCascadesCSV emits the Ex. 4 cascade study.
func WriteCascadesCSV(w io.Writer, points []CascadePoint) error {
	header := []string{"length", "standard_paths", "joint_paths", "numeric_prep_s"}
	var data [][]string
	for _, p := range points {
		data = append(data, []string{
			strconv.Itoa(p.Length),
			strconv.FormatUint(p.StandardPaths, 10),
			strconv.FormatUint(p.JointPaths, 10),
			f(p.NumericTime.Seconds()),
		})
	}
	return writeCSV(w, header, data)
}

// WriteSupremacyCSV emits the Sec. V extension rows.
func WriteSupremacyCSV(w io.Writer, rows []*SupremacyRow) error {
	header := []string{
		"circuit", "qubits", "standard_log2_paths", "joint_log2_paths", "blocks",
		"standard_s", "standard_timed_out", "joint_s", "joint_timed_out",
	}
	var data [][]string
	for _, r := range rows {
		data = append(data, []string{
			r.Name, strconv.Itoa(r.Qubits), f(r.StandardLog2), f(r.JointLog2),
			strconv.Itoa(r.Blocks),
			f(r.StandardTime.Seconds()), strconv.FormatBool(r.StandardTimed),
			f(r.JointTime.Seconds()), strconv.FormatBool(r.JointTimed),
		})
	}
	return writeCSV(w, header, data)
}

// WriteLayersCSV emits the multi-layer study.
func WriteLayersCSV(w io.Writer, points []LayerPoint) error {
	header := []string{"layers", "standard_log2_paths", "joint_log2_paths", "joint_s", "joint_timed_out"}
	var data [][]string
	for _, p := range points {
		data = append(data, []string{
			strconv.Itoa(p.Layers), f(p.StandardLog2), f(p.JointLog2),
			f(p.JointTime.Seconds()), strconv.FormatBool(p.JointTimed),
		})
	}
	return writeCSV(w, header, data)
}

// WriteManybodyCSV emits the many-body study.
func WriteManybodyCSV(w io.Writer, points []ManybodyPoint) error {
	header := []string{"steps", "standard_log2_paths", "joint_log2_paths", "hsf_s", "hsf_timed_out", "schrodinger_s"}
	var data [][]string
	for _, p := range points {
		data = append(data, []string{
			strconv.Itoa(p.Steps), f(p.StandardLog2), f(p.JointLog2),
			f(p.HSFTime.Seconds()), strconv.FormatBool(p.HSFTimed), f(p.SchrodTime.Seconds()),
		})
	}
	return writeCSV(w, header, data)
}

// WriteBackendsCSV emits the backend study.
func WriteBackendsCSV(w io.Writer, rows []*BackendRow) error {
	header := []string{
		"circuit", "qubits", "gates", "array_s", "array_amps",
		"dd_s", "dd_nodes", "max_diff",
	}
	var data [][]string
	for _, r := range rows {
		data = append(data, []string{
			r.Name, strconv.Itoa(r.Qubits), strconv.Itoa(r.Gates),
			f(r.ArrayTime.Seconds()), strconv.Itoa(r.ArrayAmps),
			f(r.DDTime.Seconds()), strconv.Itoa(r.DDNodes),
			fmt.Sprintf("%.3e", r.MaxDiff),
		})
	}
	return writeCSV(w, header, data)
}
