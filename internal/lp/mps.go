package lp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteMPS serializes the problem in (free-form) MPS format, the only
// serialization a Problem has: external LP solvers cross-check it, the
// benchmark and examples/lpexport exchange it, and the differential
// tests dump their reproducers in it. Coefficients print as %.17g, so
// ReadMPS gives back the same problem bit for bit. Variables are named
// x0, x1, …; constraint rows c0, c1, …; the objective row is COST. All
// variables carry the format's default bounds (x ≥ 0), matching this
// package's model.
func WriteMPS(w io.Writer, p *Problem, name string) error {
	if p == nil {
		return ErrBadProblem
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "NAME          %s\n", name)
	fmt.Fprintln(bw, "ROWS")
	fmt.Fprintln(bw, " N  COST")
	for i, r := range p.rows {
		var tag string
		switch r.sense {
		case LE:
			tag = "L"
		case GE:
			tag = "G"
		case EQ:
			tag = "E"
		}
		fmt.Fprintf(bw, " %s  c%d\n", tag, i)
	}

	// COLUMNS is column-major: gather per-variable coefficients.
	type colEntry struct {
		row  string
		coef float64
	}
	cols := make([][]colEntry, p.numVars)
	for v, c := range p.obj {
		if c != 0 {
			cols[v] = append(cols[v], colEntry{"COST", c})
		}
	}
	for i, r := range p.rows {
		acc := map[int]float64{}
		for _, e := range r.entries {
			acc[e.Var] += e.Coef
		}
		vars := make([]int, 0, len(acc))
		for v := range acc {
			vars = append(vars, v)
		}
		sort.Ints(vars)
		for _, v := range vars {
			if acc[v] != 0 {
				cols[v] = append(cols[v], colEntry{fmt.Sprintf("c%d", i), acc[v]})
			}
		}
	}
	fmt.Fprintln(bw, "COLUMNS")
	for v, entries := range cols {
		if len(entries) == 0 {
			// A variable with no cost and no row still has to be declared,
			// or the reader numbers every later variable one too low.
			entries = []colEntry{{"COST", 0}}
		}
		for _, e := range entries {
			fmt.Fprintf(bw, "    x%-8d %-10s %.17g\n", v, e.row, e.coef)
		}
	}
	fmt.Fprintln(bw, "RHS")
	for i, r := range p.rows {
		if r.rhs != 0 {
			fmt.Fprintf(bw, "    RHS       c%-8d %.17g\n", i, r.rhs)
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}

// ReadMPS parses the free-form MPS subset emitted by WriteMPS (N/L/G/E
// rows, COLUMNS, RHS, ENDATA; default bounds). Variable and row names
// may be arbitrary identifiers; variables are numbered in order of
// first appearance in COLUMNS.
func ReadMPS(r io.Reader) (*Problem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	type rowInfo struct {
		sense Sense
		objct bool
	}
	rowsByName := map[string]*rowInfo{}
	var rowOrder []string
	varIdx := map[string]int{}
	var varOrder []string
	type coefKey struct {
		row string
		v   int
	}
	coefs := map[coefKey]float64{}
	rhs := map[string]float64{}
	objName := ""

	section := ""
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t\r")
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		if !strings.HasPrefix(line, " ") && !strings.HasPrefix(line, "\t") {
			fields := strings.Fields(line)
			section = fields[0]
			if section == "ENDATA" {
				break
			}
			continue
		}
		fields := strings.Fields(line)
		switch section {
		case "ROWS":
			if len(fields) != 2 {
				return nil, fmt.Errorf("lp: bad ROWS line %q", line)
			}
			info := &rowInfo{}
			switch fields[0] {
			case "N":
				info.objct = true
				if objName == "" {
					objName = fields[1]
				}
			case "L":
				info.sense = LE
			case "G":
				info.sense = GE
			case "E":
				info.sense = EQ
			default:
				return nil, fmt.Errorf("lp: unknown row type %q", fields[0])
			}
			rowsByName[fields[1]] = info
			if !info.objct {
				rowOrder = append(rowOrder, fields[1])
			}
		case "COLUMNS":
			if len(fields) < 3 || len(fields)%2 == 0 {
				return nil, fmt.Errorf("lp: bad COLUMNS line %q", line)
			}
			vname := fields[0]
			v, ok := varIdx[vname]
			if !ok {
				v = len(varOrder)
				varIdx[vname] = v
				varOrder = append(varOrder, vname)
			}
			for f := 1; f < len(fields); f += 2 {
				coef, err := strconv.ParseFloat(fields[f+1], 64)
				if err != nil {
					return nil, fmt.Errorf("lp: bad coefficient %q", fields[f+1])
				}
				rname := fields[f]
				if _, ok := rowsByName[rname]; !ok {
					return nil, fmt.Errorf("lp: COLUMNS references unknown row %q", rname)
				}
				coefs[coefKey{rname, v}] += coef
			}
		case "RHS":
			if len(fields) < 3 || len(fields)%2 == 0 {
				return nil, fmt.Errorf("lp: bad RHS line %q", line)
			}
			for f := 1; f < len(fields); f += 2 {
				val, err := strconv.ParseFloat(fields[f+1], 64)
				if err != nil {
					return nil, fmt.Errorf("lp: bad RHS value %q", fields[f+1])
				}
				rhs[fields[f]] = val
			}
		case "RANGES", "BOUNDS":
			return nil, fmt.Errorf("lp: MPS section %s not supported", section)
		case "NAME", "":
			// ignore
		default:
			return nil, fmt.Errorf("lp: unknown MPS section %q", section)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(varOrder) == 0 {
		return nil, fmt.Errorf("lp: MPS file defines no variables")
	}

	p := NewProblem(len(varOrder))
	if objName != "" {
		for v := range varOrder {
			if c, ok := coefs[coefKey{objName, v}]; ok {
				p.SetObjective(v, c)
			}
		}
	}
	for _, rname := range rowOrder {
		info := rowsByName[rname]
		var entries []Entry
		for v := range varOrder {
			if c, ok := coefs[coefKey{rname, v}]; ok && c != 0 {
				entries = append(entries, Entry{Var: v, Coef: c})
			}
		}
		p.AddConstraint(entries, info.sense, rhs[rname])
	}
	return p, nil
}
