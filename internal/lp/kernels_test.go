package lp

// The hypersparse kernels against the full-scan ones of
// reference_test.go: the same pivots, the same L and U bit for bit, and
// the same FTRAN and BTRAN results, on random sparse bases and through
// chains of eta updates and refactorizations; and row-wise pricing
// against column-by-column reduced costs along whole simplex runs.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameBits reports whether a and b are one float64, a zero of either
// sign matching a zero of either sign when signedZero is false.
func sameBits(a, b float64, signedZero bool) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (!signedZero && a == 0 && b == 0)
}

// sameVec returns the first index where a and b differ under sameBits,
// or -1.
func sameVec(a, b []float64, signedZero bool) int {
	for i := range a {
		if !sameBits(a[i], b[i], signedZero) {
			return i
		}
	}
	return -1
}

// luDraw is a source of small random choices: rng.Intn in the seeded
// test, fuzz bytes in FuzzLUVsReference.
type luDraw func(n int) int

// luValue draws a column entry. Half-integers cancel exactly, so
// elimination meets zero values and zero operands; the rest are
// arbitrary.
func luValue(draw luDraw) float64 {
	if draw(3) == 0 {
		return float64(draw(4001)-2000) / 997
	}
	v := float64(draw(9)-4) / 2
	if v == 0 {
		v = 1
	}
	return v
}

// luColumn draws one basis column of an m-row basis. Two in three are
// unit columns (slacks and artificials, ±1); the rest carry up to six
// entries. diag, when ≥ 0, is a row the column surely has an entry in.
func luColumn(draw luDraw, m, diag int) spCol {
	var c spCol
	if draw(3) > 0 {
		r := diag
		if r < 0 {
			r = draw(m)
		}
		v := 1.0
		if draw(2) == 0 {
			v = -1
		}
		return spCol{ind: []int{r}, val: []float64{v}}
	}
	seen := map[int]bool{}
	if diag >= 0 {
		seen[diag] = true
		c.ind = append(c.ind, diag)
		c.val = append(c.val, luValue(draw))
	}
	for n := draw(min(m, 6) + 1); n > 0; n-- {
		r := draw(m)
		if seen[r] {
			continue
		}
		seen[r] = true
		c.ind = append(c.ind, r)
		c.val = append(c.val, luValue(draw))
	}
	return c
}

// luBasis draws an m×m basis: columns built around a random row
// permutation (nonsingular as a rule) or, one time in four, around
// nothing (singular as a rule), listed in a random basis order.
func luBasis(draw luDraw, m int) ([]spCol, []int) {
	free := draw(4) == 0
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	for i := m - 1; i > 0; i-- {
		j := draw(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	cols := make([]spCol, m)
	for k := range cols {
		diag := perm[k]
		if free {
			diag = -1
		}
		cols[k] = luColumn(draw, m, diag)
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = i
	}
	for i := m - 1; i > 0; i-- {
		j := draw(i + 1)
		basis[i], basis[j] = basis[j], basis[i]
	}
	return cols, basis
}

// luRHS draws a right-hand side: a unit vector, a sparse vector (a
// cost vector over a few basic columns) or a dense one.
func luRHS(draw luDraw, m int) []float64 {
	v := make([]float64, m)
	switch draw(3) {
	case 0:
		v[draw(m)] = 1
	case 1:
		for n := 1 + draw(min(m, 4)); n > 0; n-- {
			v[draw(m)] = luValue(draw)
		}
	default:
		for i := range v {
			v[i] = luValue(draw)
		}
	}
	return v
}

// compareFactors describes the first difference between a production
// and a reference factorization of the same basis, or returns "".
func compareFactors(got *luFactors, want *luRef, gotErr, wantErr error) string {
	if gotErr != wantErr {
		return fmt.Sprintf("factor: error %v, reference %v", gotErr, wantErr)
	}
	if !slices.Equal(got.pos, want.pos) {
		return fmt.Sprintf("factor: pivot rows %v, reference %v", got.pos, want.pos)
	}
	steps := want.m
	if wantErr != nil {
		steps = 0
		for _, s := range want.pos {
			if s >= 0 {
				steps++
			}
		}
	}
	if !slices.Equal(got.rowOf[:steps], want.rowOf[:steps]) {
		return fmt.Sprintf("factor: rowOf %v, reference %v", got.rowOf[:steps], want.rowOf[:steps])
	}
	if i := sameVec(got.diag[:steps], want.diag[:steps], true); i >= 0 {
		return fmt.Sprintf("factor: diag[%d] = %v, reference %v", i, got.diag[i], want.diag[i])
	}
	if !slices.Equal(got.lPtr[:steps+1], want.lPtr[:steps+1]) || !slices.Equal(got.uPtr[:steps+1], want.uPtr[:steps+1]) {
		return fmt.Sprintf("factor: column starts L %v U %v, reference L %v U %v",
			got.lPtr[:steps+1], got.uPtr[:steps+1], want.lPtr[:steps+1], want.uPtr[:steps+1])
	}
	// A finished factorization holds L's rows as steps.
	lRows := slices.Clone(got.lInd)
	if gotErr == nil {
		for i, s := range lRows {
			lRows[i] = got.rowOf[s]
		}
	}
	if !slices.Equal(lRows, want.lRow) {
		return fmt.Sprintf("factor: L rows %v, reference %v", lRows, want.lRow)
	}
	if i := sameVec(got.lVal, want.lVal, true); i >= 0 || len(got.lVal) != len(want.lVal) {
		return fmt.Sprintf("factor: L values %v, reference %v", got.lVal, want.lVal)
	}
	if !slices.Equal(got.uRow, want.uRow) {
		return fmt.Sprintf("factor: U rows %v, reference %v", got.uRow, want.uRow)
	}
	if i := sameVec(got.uVal, want.uVal, true); i >= 0 || len(got.uVal) != len(want.uVal) {
		return fmt.Sprintf("factor: U values %v, reference %v", got.uVal, want.uVal)
	}
	return ""
}

// compareSolves runs FTRAN and BTRAN on a few drawn right-hand sides
// through both. FTRAN's arithmetic is the reference's exactly; BTRAN
// skips zero products, so a zero may differ in sign.
func compareSolves(draw luDraw, got *basisLU, want *basisRef, m int, label string) string {
	for n := 0; n < 3; n++ {
		rhs := luRHS(draw, m)
		gz, wz := make([]float64, m), make([]float64, m)
		got.ftran(slices.Clone(rhs), gz)
		want.ftran(slices.Clone(rhs), wz)
		if i := sameVec(gz, wz, true); i >= 0 {
			return fmt.Sprintf("%s: ftran(%v)[%d] = %v, reference %v", label, rhs, i, gz[i], wz[i])
		}
		gy, wy := make([]float64, m), make([]float64, m)
		got.btran(slices.Clone(rhs), gy)
		want.btran(slices.Clone(rhs), wy)
		if i := sameVec(gy, wy, false); i >= 0 {
			return fmt.Sprintf("%s: btran(%v)[%d] = %v, reference %v", label, rhs, i, gy[i], wy[i])
		}
	}
	return ""
}

// compareLU factors a drawn m×m basis with both kernels, then runs a
// chain of eta updates through a refactorization, comparing factors and
// solves at every step. It returns the first difference, or "", and
// whether the drawn basis was singular.
func compareLU(draw luDraw, m int) (string, bool) {
	cols, basis := luBasis(draw, m)
	var got basisLU
	var want basisRef
	got.lu.reset(m)
	want.lu.reset(m)
	gotErr, wantErr := got.refactor(cols, basis), want.refactor(cols, basis)
	if d := compareFactors(&got.lu, &want.lu, gotErr, wantErr); d != "" || wantErr != nil {
		return d, wantErr != nil
	}
	return compareEtaChain(draw, &got, &want, cols, basis), false
}

// compareEtaChain replaces drawn basis columns one eta at a time,
// refactoring both halfway, and compares solves after every step.
func compareEtaChain(draw luDraw, got *basisLU, want *basisRef, cols []spCol, basis []int) string {
	m := len(basis)
	if d := compareSolves(draw, got, want, m, "after factor"); d != "" {
		return d
	}
	for step, steps := 0, draw(8); step < steps; step++ {
		if step == steps/2 {
			gotErr, wantErr := got.refactor(cols, basis), want.refactor(cols, basis)
			if d := compareFactors(&got.lu, &want.lu, gotErr, wantErr); d != "" || wantErr != nil {
				return d
			}
		}
		r, col := draw(m), luColumn(draw, m, -1)
		rhs := make([]float64, m)
		for i, row := range col.ind {
			rhs[row] = col.val[i]
		}
		gw, ww := make([]float64, m), make([]float64, m)
		got.ftran(slices.Clone(rhs), gw)
		want.ftran(rhs, ww)
		if i := sameVec(gw, ww, true); i >= 0 {
			return fmt.Sprintf("eta %d: entering column ftran[%d] = %v, reference %v", step, i, gw[i], ww[i])
		}
		gotErr, wantErr := got.push(r, gw), want.push(r, ww)
		if gotErr != wantErr {
			return fmt.Sprintf("eta %d: push error %v, reference %v", step, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		cols = append(cols, col)
		basis[r] = len(cols) - 1
		if d := compareSolves(draw, got, want, m, fmt.Sprintf("after eta %d", step)); d != "" {
			return d
		}
	}
	return ""
}

// TestLUKernelsMatchReference sweeps random sparse bases, m 1 to 80:
// slack-heavy, permuted, singular ones included.
func TestLUKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	singular := 0
	for n := 0; n < 600; n++ {
		seed := rng.Int63()
		draw := rand.New(rand.NewSource(seed)).Intn
		m := 1 + draw(80)
		d, sing := compareLU(draw, m)
		if d != "" {
			t.Fatalf("basis %d (seed %d, m=%d): %s", n, seed, m, d)
		}
		if sing {
			singular++
		}
	}
	if singular == 0 || singular > 300 {
		t.Errorf("%d of 600 bases singular; the sweep must cover both outcomes", singular)
	}
}

// FuzzLUVsReference is TestLUKernelsMatchReference on fuzz bytes; `make
// fuzz` runs it bounded.
func FuzzLUVsReference(f *testing.F) {
	f.Add([]byte{4, 1, 2, 0, 3, 1, 1, 2, 0, 5, 7, 9})
	f.Add([]byte{40, 0, 0, 0, 0, 2, 2, 2, 2, 1, 1, 1})
	f.Add([]byte{1, 0})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		buf := make([]byte, 16+rng.Intn(240))
		rng.Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		at := 0
		draw := func(n int) int {
			if at >= len(data) {
				return 0
			}
			b := int(data[at])
			at++
			return b % n
		}
		m := 1 + draw(80)
		if d, _ := compareLU(draw, m); d != "" {
			t.Fatalf("m=%d: %s", m, d)
		}
	})
}

// intervalShaped is a small LP in the interval relaxation's shape: job
// k finishes in one of L doubling intervals (a convexity row) at the
// cost of its weight times the interval's left end, and every port caps
// the load finished by the end of each interval. Most columns cost
// nothing in phase 1 and every slack nothing in phase 2, so most duals
// are zero.
func intervalShaped(rng *rand.Rand) *Problem {
	jobs, L, ports := 2+rng.Intn(8), 2+rng.Intn(5), 1+rng.Intn(4)
	p := NewProblem(jobs * L)
	load := make([][]float64, jobs)
	total := 0.0
	for k := range load {
		load[k] = make([]float64, ports)
		for q := range load[k] {
			if rng.Intn(2) == 0 {
				load[k][q] = float64(1 + rng.Intn(4))
				total += load[k][q]
			}
		}
	}
	tau := make([]float64, L)
	for l := range tau {
		tau[l] = math.Ldexp(1, l)
	}
	tau[L-1] = max(tau[L-1], total)
	for k := 0; k < jobs; k++ {
		w := float64(1 + rng.Intn(5))
		var row []Entry
		for l := 0; l < L; l++ {
			if l > 0 {
				p.SetObjective(k*L+l, w*tau[l-1])
			}
			row = append(row, Entry{Var: k*L + l, Coef: 1})
		}
		p.AddConstraint(row, EQ, 1)
	}
	for q := 0; q < ports; q++ {
		for l := 0; l < L-1; l++ {
			var row []Entry
			for k := 0; k < jobs; k++ {
				for u := 0; load[k][q] > 0 && u <= l; u++ {
					row = append(row, Entry{Var: k*L + u, Coef: load[k][q]})
				}
			}
			p.AddConstraint(row, LE, tau[l])
		}
	}
	return p
}

// TestPriceMatchesReference runs the two-phase revised simplex by hand
// on random and interval-shaped LPs and, at every iteration, holds
// price to priceRef: the same entering column, the same worst reduced
// cost, and every eligible column's reduced cost reducedCost's up to
// the sign of a zero. Dantzig and Bland iterations alternate.
func TestPriceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	iterations := 0
	for n := 0; n < 400; n++ {
		p := randomProblem(rng)
		if n%2 == 1 {
			p = intervalShaped(rng)
		}
		var r revised
		r.load(p)
		if r.refactor() != nil {
			continue
		}
		phase := func(cost []float64) bool {
			for iter := 0; iter < 200; iter++ {
				iterations++
				bland := (iter+n)%3 == 0
				enter := r.price(cost, bland)
				want, worst := r.priceRef(cost, bland)
				if enter != want || !sameBits(r.worstReduced, worst, false) {
					t.Fatalf("instance %d, iteration %d: price enters %d (worst %v), reference %d (worst %v)",
						n, iter, enter, r.worstReduced, want, worst)
				}
				for j := range r.d {
					if r.banned[j] || r.basisPos[j] >= 0 {
						continue
					}
					if d := r.reducedCost(cost, j); !sameBits(r.d[j], d, false) {
						t.Fatalf("instance %d, iteration %d: d[%d] = %v, reference %v", n, iter, j, r.d[j], d)
					}
				}
				if enter < 0 {
					return true
				}
				r.ftranCol(enter, r.w)
				leave := r.ratioTest(r.w)
				if leave < 0 {
					if enter, leave = r.anyEnteringWithLeave(); leave < 0 {
						return false
					}
				}
				if r.pivot(leave, enter, r.w) != nil {
					return false
				}
			}
			return false
		}
		if r.nArt > 0 {
			if !phase(r.phase1Cost()) || r.phase1Obj() > epsFeas || r.banArtificials() != nil {
				continue
			}
		}
		phase(r.phase2Cost())
	}
	if iterations < 2000 {
		t.Errorf("only %d priced iterations; the sweep is not exercised", iterations)
	}
}
