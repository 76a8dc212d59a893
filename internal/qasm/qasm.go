// Package qasm reads and writes a pragmatic subset of OpenQASM 2.0 covering
// every gate the simulator produces: single-qubit Cliffords and rotations,
// the two-qubit entanglers (cx, cz, cp, swap, iswap, rzz, rxx, ryy), and
// ccx/ccz. It exists so the CLI tools and examples can exchange circuits
// with other toolchains.
package qasm

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hsfsim/internal/circuit"
	"hsfsim/internal/gate"
	"hsfsim/internal/synth"
)

// Write renders the circuit as OpenQASM 2.0.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", c.NumQubits)
	for i := range c.Gates {
		g := &c.Gates[i]
		line, err := gateLine(g)
		if err != nil {
			return fmt.Errorf("qasm: gate %d: %w", i, err)
		}
		fmt.Fprintln(bw, line)
	}
	return bw.Flush()
}

func gateLine(g *gate.Gate) (string, error) {
	args := make([]string, len(g.Qubits))
	for i, q := range g.Qubits {
		args[i] = fmt.Sprintf("q[%d]", q)
	}
	qs := strings.Join(args, ",")
	switch g.Name {
	case "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx",
		"cx", "cz", "swap", "iswap", "ccx", "ccz":
		return fmt.Sprintf("%s %s;", g.Name, qs), nil
	case "sy":
		// No qelib1 primitive; SY = S·SX·S† exactly (verified in tests), so
		// emit the three-gate decomposition in circuit order.
		q := args[0]
		return fmt.Sprintf("sdg %s;\nsx %s;\ns %s;", q, q, q), nil
	case "rx", "ry", "rz", "p", "cp", "rzz", "rxx", "ryy", "crx", "cry", "crz":
		return fmt.Sprintf("%s(%s) %s;", g.Name, formatFloat(g.Params[0]), qs), nil
	case "u3":
		return fmt.Sprintf("u3(%s,%s,%s) %s;",
			formatFloat(g.Params[0]), formatFloat(g.Params[1]), formatFloat(g.Params[2]), qs), nil
	default:
		// Any other single-qubit unitary (sw, fused gates, …) is
		// written as its exact ZYZ expansion, global phase included.
		if g.NumQubits() == 1 {
			z, err := synth.ZYZDecompose(g.Matrix)
			if err != nil {
				return "", fmt.Errorf("no QASM form for %q: %v", g.Name, err)
			}
			var lines []string
			for _, zg := range z.GatesWithPhase(g.Qubits[0]) {
				line, err := gateLine(&zg)
				if err != nil {
					return "", err
				}
				lines = append(lines, line)
			}
			if len(lines) == 0 {
				lines = append(lines, fmt.Sprintf("id %s;", qs))
			}
			return strings.Join(lines, "\n"), nil
		}
		return "", fmt.Errorf("no QASM form for %q", g.Name)
	}
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 17, 64)
}

// maxLine is the longest line Parse accepts, in bytes: a line of this
// length or more is an error wrapping bufio.ErrTooLong, not a silent
// truncation.
const maxLine = 1 << 20

// Parse reads an OpenQASM 2.0 subset back into a circuit. Unsupported
// statements produce errors rather than silent drops. The text is read into
// one string and every line, statement and argument is a substring of it.
func Parse(r io.Reader) (*circuit.Circuit, error) {
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		sb.Grow(l.Len())
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("qasm: %w", err)
	}
	text := sb.String()
	var c *circuit.Circuit
	for lineNo := 1; text != ""; lineNo++ {
		line, rest, _ := strings.Cut(text, "\n")
		text = rest
		if len(line) >= maxLine {
			return nil, fmt.Errorf("qasm: line %d: %w", lineNo, bufio.ErrTooLong)
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		// A line may hold several ';'-terminated statements.
		for line != "" {
			var stmt string
			stmt, line, _ = strings.Cut(line, ";")
			if stmt = strings.TrimSpace(stmt); stmt == "" {
				continue
			}
			if err := parseStatement(stmt, &c, text); err != nil {
				return nil, fmt.Errorf("qasm: line %d: %w", lineNo, err)
			}
		}
	}
	if c == nil {
		return nil, fmt.Errorf("qasm: no qreg declaration found")
	}
	return c, nil
}

// parseStatement parses one statement into *c. rest is the text after the
// statement's line, which a qreg sizes the gate list for.
func parseStatement(stmt string, c **circuit.Circuit, rest string) error {
	switch {
	case strings.HasPrefix(stmt, "OPENQASM"), strings.HasPrefix(stmt, "include"),
		strings.HasPrefix(stmt, "creg"), strings.HasPrefix(stmt, "barrier"):
		return nil
	case strings.HasPrefix(stmt, "qreg"):
		var name string
		var n int
		if _, err := fmt.Sscanf(stmt, "qreg %1s[%d]", &name, &n); err != nil {
			// Retry with a general pattern: qreg <ident>[<n>]
			open := strings.Index(stmt, "[")
			close_ := strings.Index(stmt, "]")
			if open < 0 || close_ < open {
				return fmt.Errorf("bad qreg %q", stmt)
			}
			v, err := strconv.Atoi(stmt[open+1 : close_])
			if err != nil {
				return fmt.Errorf("bad qreg size in %q", stmt)
			}
			n = v
		}
		if *c != nil {
			return fmt.Errorf("multiple qreg declarations")
		}
		if n <= 0 {
			return fmt.Errorf("qreg size %d", n)
		}
		*c = circuit.New(n)
		// Room for the gates of the statements that follow, at most one per
		// six bytes (the shortest gate statement, "x [0];"), so that a run
		// of empty statements reserves no more than real gates would.
		(*c).Gates = make([]gate.Gate, 0, min(strings.Count(rest, ";"), len(rest)/6)+1)
		return nil
	}
	if *c == nil {
		return fmt.Errorf("gate before qreg")
	}
	var pbuf [3]float64
	var qbuf [3]int
	name, params, qubits, err := splitGateStmt(stmt, pbuf[:0], qbuf[:0])
	if err != nil {
		return err
	}
	g, err := buildGate(name, params, qubits)
	if err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return err
	}
	if g.MaxQubit() >= (*c).NumQubits {
		return fmt.Errorf("qubit %d out of range for qreg[%d]", g.MaxQubit(), (*c).NumQubits)
	}
	(*c).Append(g)
	return nil
}

// splitGateStmt parses "name(p1,p2) q[a],q[b]", appending the parameters
// and qubit indices to params and qubits.
func splitGateStmt(stmt string, params []float64, qubits []int) (name string, _ []float64, _ []int, err error) {
	head, rest := stmt, ""
	if sp := strings.IndexAny(stmt, " \t"); sp >= 0 {
		head, rest = stmt[:sp], strings.TrimSpace(stmt[sp+1:])
	}
	name = head
	if par := strings.Index(head, "("); par >= 0 {
		name = head[:par]
		closing := strings.LastIndex(head, ")")
		if closing < par {
			return "", nil, nil, fmt.Errorf("unbalanced parentheses in %q", stmt)
		}
		for list, more := head[par+1:closing], true; more; {
			var p string
			p, list, more = strings.Cut(list, ",")
			v, err := parseAngle(strings.TrimSpace(p))
			if err != nil {
				return "", nil, nil, err
			}
			params = append(params, v)
		}
	}
	for more := true; more; {
		var qref string
		qref, rest, more = strings.Cut(rest, ",")
		qref = strings.TrimSpace(qref)
		open := strings.Index(qref, "[")
		close_ := strings.Index(qref, "]")
		if open < 0 || close_ < open {
			return "", nil, nil, fmt.Errorf("bad qubit reference %q", qref)
		}
		v, err := strconv.Atoi(qref[open+1 : close_])
		if err != nil {
			return "", nil, nil, fmt.Errorf("bad qubit index %q", qref)
		}
		qubits = append(qubits, v)
	}
	return name, params, qubits, nil
}

// parseAngle evaluates numeric literals and the common "pi"-expressions
// (pi, -pi, pi/2, 2*pi, ...).
func parseAngle(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	val := 0.0
	switch {
	case s == "pi":
		val = math.Pi
	case strings.HasPrefix(s, "pi/"):
		d, err := strconv.ParseFloat(s[3:], 64)
		if err != nil {
			return 0, fmt.Errorf("bad angle %q", s)
		}
		val = math.Pi / d
	case strings.HasSuffix(s, "*pi"):
		f, err := strconv.ParseFloat(s[:len(s)-3], 64)
		if err != nil {
			return 0, fmt.Errorf("bad angle %q", s)
		}
		val = f * math.Pi
	default:
		return 0, fmt.Errorf("bad angle %q", s)
	}
	if neg {
		val = -val
	}
	return val, nil
}

// gateArity lists (qubits, params) for every supported gate.
var gateArity = map[string][2]int{
	"id": {1, 0}, "x": {1, 0}, "y": {1, 0}, "z": {1, 0}, "h": {1, 0},
	"s": {1, 0}, "sdg": {1, 0}, "t": {1, 0}, "tdg": {1, 0}, "sx": {1, 0},
	"rx": {1, 1}, "ry": {1, 1}, "rz": {1, 1}, "p": {1, 1}, "u3": {1, 3},
	"cx": {2, 0}, "cz": {2, 0}, "cp": {2, 1}, "swap": {2, 0}, "iswap": {2, 0},
	"rzz": {2, 1}, "rxx": {2, 1}, "ryy": {2, 1},
	"crx": {2, 1}, "cry": {2, 1}, "crz": {2, 1},
	"ccx": {3, 0}, "ccz": {3, 0},
}

func buildGate(name string, params []float64, qubits []int) (gate.Gate, error) {
	arity, ok := gateArity[name]
	if !ok {
		return gate.Gate{}, fmt.Errorf("unsupported gate %q", name)
	}
	if len(qubits) != arity[0] {
		return gate.Gate{}, fmt.Errorf("%s expects %d qubits, got %d", name, arity[0], len(qubits))
	}
	if len(params) != arity[1] {
		return gate.Gate{}, fmt.Errorf("%s expects %d params, got %d", name, arity[1], len(params))
	}
	switch name {
	case "id":
		return gate.I(qubits[0]), nil
	case "x":
		return gate.X(qubits[0]), nil
	case "y":
		return gate.Y(qubits[0]), nil
	case "z":
		return gate.Z(qubits[0]), nil
	case "h":
		return gate.H(qubits[0]), nil
	case "s":
		return gate.S(qubits[0]), nil
	case "sdg":
		return gate.Sdg(qubits[0]), nil
	case "t":
		return gate.T(qubits[0]), nil
	case "tdg":
		return gate.Tdg(qubits[0]), nil
	case "sx":
		return gate.SX(qubits[0]), nil
	case "rx":
		return gate.RX(params[0], qubits[0]), nil
	case "ry":
		return gate.RY(params[0], qubits[0]), nil
	case "rz":
		return gate.RZ(params[0], qubits[0]), nil
	case "p":
		return gate.P(params[0], qubits[0]), nil
	case "u3":
		return gate.U3(params[0], params[1], params[2], qubits[0]), nil
	case "cx":
		return gate.CNOT(qubits[0], qubits[1]), nil
	case "cz":
		return gate.CZ(qubits[0], qubits[1]), nil
	case "cp":
		return gate.CPhase(params[0], qubits[0], qubits[1]), nil
	case "swap":
		return gate.SWAP(qubits[0], qubits[1]), nil
	case "iswap":
		return gate.ISWAP(qubits[0], qubits[1]), nil
	case "rzz":
		return gate.RZZ(params[0], qubits[0], qubits[1]), nil
	case "rxx":
		return gate.RXX(params[0], qubits[0], qubits[1]), nil
	case "ryy":
		return gate.RYY(params[0], qubits[0], qubits[1]), nil
	case "crx":
		return gate.CRX(params[0], qubits[0], qubits[1]), nil
	case "cry":
		return gate.CRY(params[0], qubits[0], qubits[1]), nil
	case "crz":
		return gate.CRZ(params[0], qubits[0], qubits[1]), nil
	case "ccx":
		return gate.CCX(qubits[0], qubits[1], qubits[2]), nil
	case "ccz":
		return gate.CCZ(qubits[0], qubits[1], qubits[2]), nil
	default:
		return gate.Gate{}, fmt.Errorf("unsupported gate %q", name)
	}
}
