package engine

import (
	"fmt"
	"strings"

	"copycat/internal/provenance"
	"copycat/internal/resilience"
	"copycat/internal/table"
)

// ---------------------------------------------------------------- DependentJoin

// DependentJoin feeds selected input columns to a service per row and
// appends the service's outputs (§2.1's Zipcode Resolver example; the
// green-arrow dependent join of Figure 2). Rows with no service answer are
// dropped unless Outer is set, in which case outputs are null-padded.
type DependentJoin struct {
	Input     Plan
	Svc       Service
	InputCols []int // positions in Input's schema feeding Svc, in Svc input order
	Outer     bool
}

// NewDependentJoinByName binds a service's inputs to named input columns.
func NewDependentJoinByName(input Plan, svc Service, cols ...string) (*DependentJoin, error) {
	want := svc.InputSchema()
	if len(cols) != len(want) {
		return nil, fmt.Errorf("engine: dependent join: service %s needs %d inputs, got %d", svc.Name(), len(want), len(cols))
	}
	sch := input.Schema()
	dj := &DependentJoin{Input: input, Svc: svc}
	for _, n := range cols {
		i := sch.Index(n)
		if i < 0 {
			return nil, fmt.Errorf("engine: dependent join: no column %q in %s", n, sch)
		}
		dj.InputCols = append(dj.InputCols, i)
	}
	return dj, nil
}

// Schema implements Plan.
func (d *DependentJoin) Schema() table.Schema {
	return d.Input.Schema().Concat(d.Svc.OutputSchema())
}

// Execute implements Plan.
//
// Service calls dominate the latency of the F2/E6 paths, so lookups are
// memoized: per execution always, and across executions when the ExecCtx
// carries a shared ServiceCache. The context is consulted before every
// call — a cancelled or expired execution stops without touching the
// service again.
//
// When the ExecCtx carries a resilience layer, a call that still fails
// transiently after retries (or finds its breaker open) degrades only
// its own row — skipped, or null-padded under Outer — and is counted in
// Stats.DegradedRows and Result.Degraded; permanent errors fail the
// plan as before.
func (d *DependentJoin) Execute(ec *ExecCtx) (*Result, error) {
	ec = ec.orBackground()
	in, err := d.Input.Execute(ec)
	if err != nil {
		return nil, err
	}
	outWidth := len(d.Svc.OutputSchema())
	out := &Result{Name: in.Name + "→" + d.Svc.Name(), Schema: d.Schema(), Degraded: in.Degraded}
	local := map[string][]table.Tuple{}
	stats := ec.Stats()
	// opHits/opCalls shadow the shared stats counters for this operator
	// alone: the span attrs must not pick up concurrent candidates'
	// traffic, or traces stop being deterministic.
	var opHits, opCalls int64
	if sp := ec.StartSpan("op.DepJoin:"+d.Svc.Name(), "operator"); sp != nil {
		// Nest the per-row service-call spans under this operator span.
		ec = ec.WithSpan(sp)
		defer func() {
			sp.SetAttrInt("rows_in", int64(len(in.Rows)))
			sp.SetAttrInt("rows_out", int64(len(out.Rows)))
			sp.SetAttrInt("cache_hits", opHits)
			sp.SetAttrInt("svc_calls", opCalls)
			sp.End()
		}()
	}
	for _, a := range in.Rows {
		if err := ec.Err(); err != nil {
			return nil, err
		}
		args := make(table.Tuple, len(d.InputCols))
		skip := false
		for i, c := range d.InputCols {
			if c < 0 || c >= len(a.Row) {
				return nil, fmt.Errorf("engine: dependent join: column %d out of range", c)
			}
			args[i] = a.Row[c]
			if a.Row[c].IsNull() {
				skip = true
			}
		}
		var answers []table.Tuple
		if !skip {
			key := d.Svc.Name() + "\x00" + args.Key()
			var hit bool
			if answers, hit = ec.lookupService(key, local); hit {
				stats.ServiceCacheHits.Add(1)
				opHits++
			} else {
				stats.ServiceCalls.Add(1)
				opCalls++
				res, callErr := ec.callService(d.Svc, args)
				if callErr != nil {
					// Degradation engages only under a resilience layer;
					// without one any error fails the plan, as before.
					if ec.Resilience() == nil || !resilience.Transient(callErr) {
						return nil, fmt.Errorf("engine: service %s: %w", d.Svc.Name(), callErr)
					}
					// Graceful degradation: a transient failure that
					// outlived its retries costs this row, not the plan.
					// The miss is not cached — a later refresh may succeed.
					stats.DegradedRows.Add(1)
					out.Degraded++
					if d.Outer {
						row := a.Row.Clone()
						for i := 0; i < outWidth; i++ {
							row = append(row, table.Null())
						}
						out.Rows = append(out.Rows, provenance.Annotated{Row: row, Prov: a.Prov})
					}
					continue
				}
				answers = res
				ec.storeService(key, local, answers)
			}
		}
		if len(answers) == 0 {
			if d.Outer {
				row := a.Row.Clone()
				for i := 0; i < outWidth; i++ {
					row = append(row, table.Null())
				}
				out.Rows = append(out.Rows, provenance.Annotated{Row: row, Prov: a.Prov})
			}
			continue
		}
		for _, ans := range answers {
			if len(ans) != outWidth {
				return nil, fmt.Errorf("engine: service %s returned arity %d, want %d", d.Svc.Name(), len(ans), outWidth)
			}
			row := append(a.Row.Clone(), ans...)
			leaf := provenance.Leaf{
				ID:     table.TupleID(fmt.Sprintf("%s:(%s)", d.Svc.Name(), strings.Join(args.Texts(), "|"))),
				Source: d.Svc.Name(),
			}
			out.Rows = append(out.Rows, provenance.Annotated{
				Row:  row,
				Prov: provenance.Join(a.Prov, leaf),
			})
		}
	}
	if err := ec.opDone("DepJoin", len(in.Rows), len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

func (d *DependentJoin) String() string {
	return fmt.Sprintf("DepJoin[%s]%v(%s)", d.Svc.Name(), d.InputCols, d.Input)
}

// ---------------------------------------------------------------- RecordLinkJoin

// Similarity scores how well two tuples (restricted to the chosen columns)
// refer to the same real-world entity; 0 = unrelated, 1 = identical.
type Similarity func(a, b table.Tuple) float64

// RecordLinkJoin is an approximate join: each left row is linked to the
// best-scoring right row(s) above Threshold (§1's contact-matching
// example). If BestOnly is set, only the argmax right row joins.
type RecordLinkJoin struct {
	Left, Right         Plan
	LeftCols, RightCols []int
	Sim                 Similarity // receives the restricted column tuples
	Threshold           float64
	BestOnly            bool
}

// Schema implements Plan.
func (r *RecordLinkJoin) Schema() table.Schema {
	return r.Left.Schema().Concat(r.Right.Schema())
}

// Execute implements Plan. The right rows' key columns are restricted
// once, when the first left row is scored; only the linked pairs are
// materialized as output rows.
func (r *RecordLinkJoin) Execute(ec *ExecCtx) (*Result, error) {
	ec = ec.orBackground()
	l, err := r.Left.Execute(ec)
	if err != nil {
		return nil, err
	}
	rr, err := r.Right.Execute(ec)
	if err != nil {
		return nil, err
	}
	out := &Result{Name: l.Name + "≈" + rr.Name, Schema: r.Schema(), Degraded: l.Degraded + rr.Degraded}
	var rkeys []table.Tuple
	var linked []int // right rows linked to the current left row
	for li, la := range l.Rows {
		// The similarity scan is quadratic; honor cancellation per left row.
		if err := ec.checkEvery(li); err != nil {
			return nil, err
		}
		lkey := make(table.Tuple, len(r.LeftCols))
		if err := restrict(lkey, la.Row, r.LeftCols); err != nil {
			return nil, err
		}
		if li == 0 {
			if rkeys, err = restrictAll(rr.Rows, r.RightCols); err != nil {
				return nil, err
			}
		}
		best := -1.0
		linked = linked[:0]
		for ri, rkey := range rkeys {
			s := r.Sim(lkey, rkey)
			if s < r.Threshold {
				continue
			}
			if r.BestOnly {
				if s > best {
					best = s
					linked = append(linked[:0], ri)
				} else if s == best {
					linked = append(linked, ri)
				}
			} else {
				linked = append(linked, ri)
			}
		}
		for _, ri := range linked {
			ra := rr.Rows[ri]
			row := make(table.Tuple, 0, len(la.Row)+len(ra.Row))
			out.Rows = append(out.Rows, provenance.Annotated{
				Row:  append(append(row, la.Row...), ra.Row...),
				Prov: provenance.Join(la.Prov, ra.Prov),
			})
		}
	}
	if err := ec.opDone("LinkJoin", len(l.Rows)+len(rr.Rows), len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

// restrict copies the key columns cols of row into key.
func restrict(key, row table.Tuple, cols []int) error {
	for i, c := range cols {
		if c < 0 || c >= len(row) {
			return fmt.Errorf("engine: record link column %d out of range", c)
		}
		key[i] = row[c]
	}
	return nil
}

// restrictAll restricts every row to cols. The keys share one backing
// array, each capped so that a Similarity appending to its argument
// cannot write into the next key.
func restrictAll(rows []provenance.Annotated, cols []int) ([]table.Tuple, error) {
	k := len(cols)
	vals := make(table.Tuple, len(rows)*k)
	keys := make([]table.Tuple, len(rows))
	for i, ra := range rows {
		keys[i] = vals[i*k : (i+1)*k : (i+1)*k]
		if err := restrict(keys[i], ra.Row, cols); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

func (r *RecordLinkJoin) String() string {
	return fmt.Sprintf("LinkJoin[θ=%.2f](%s, %s)", r.Threshold, r.Left, r.Right)
}

// ---------------------------------------------------------------- Union

// Union concatenates inputs with identical arities; column names come from
// the first input. Duplicate rows are merged with their provenance
// combined by ⊕ — the semiring account of "this tuple has two
// derivations".
type Union struct {
	Inputs []Plan
}

// Schema implements Plan.
func (u *Union) Schema() table.Schema {
	if len(u.Inputs) == 0 {
		return nil
	}
	return u.Inputs[0].Schema()
}

// Execute implements Plan.
func (u *Union) Execute(ec *ExecCtx) (*Result, error) {
	ec = ec.orBackground()
	if len(u.Inputs) == 0 {
		return &Result{Name: "union"}, nil
	}
	out := &Result{Name: "union", Schema: u.Schema()}
	index := map[string]int{} // tuple key -> position in out.Rows
	arity := len(out.Schema)
	rowsIn := 0
	for _, in := range u.Inputs {
		res, err := in.Execute(ec)
		if err != nil {
			return nil, err
		}
		rowsIn += len(res.Rows)
		out.Degraded += res.Degraded
		for i, a := range res.Rows {
			if err := ec.checkEvery(i); err != nil {
				return nil, err
			}
			if len(a.Row) != arity {
				return nil, fmt.Errorf("engine: union arity mismatch: %d vs %d", len(a.Row), arity)
			}
			k := a.Row.Key()
			if i, ok := index[k]; ok {
				out.Rows[i].Prov = provenance.Merge(out.Rows[i].Prov, a.Prov)
			} else {
				index[k] = len(out.Rows)
				out.Rows = append(out.Rows, a)
			}
		}
	}
	if err := ec.opDone("Union", rowsIn, len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

func (u *Union) String() string {
	s := "Union("
	for i, in := range u.Inputs {
		if i > 0 {
			s += ", "
		}
		s += in.String()
	}
	return s + ")"
}

// PadTo wraps a plan so its output matches a wider target schema, placing
// each input column under the target column with the same name and
// null-padding the rest. Union uses this to homogenize heterogeneous
// completions (§4.2: "extending the schema and padding with nulls as
// necessary to form a homogeneous schema").
func PadTo(input Plan, target table.Schema) Plan {
	return &pad{Input: input, Target: target}
}

type pad struct {
	Input  Plan
	Target table.Schema
}

func (p *pad) Schema() table.Schema { return p.Target }

func (p *pad) Execute(ec *ExecCtx) (*Result, error) {
	in, err := p.Input.Execute(ec.orBackground())
	if err != nil {
		return nil, err
	}
	mapping := make([]int, len(p.Target)) // target col -> input col or -1
	for i, c := range p.Target {
		mapping[i] = in.Schema.Index(c.Name)
	}
	out := &Result{Name: in.Name, Schema: p.Target, Degraded: in.Degraded}
	for _, a := range in.Rows {
		row := make(table.Tuple, len(p.Target))
		for i, m := range mapping {
			if m >= 0 && m < len(a.Row) {
				row[i] = a.Row[m]
			} else {
				row[i] = table.Null()
			}
		}
		out.Rows = append(out.Rows, provenance.Annotated{Row: row, Prov: a.Prov})
	}
	return out, nil
}

func (p *pad) String() string { return fmt.Sprintf("Pad(%s)", p.Input) }

// ---------------------------------------------------------------- Distinct

// Distinct removes duplicate rows, merging provenance with ⊕.
type Distinct struct {
	Input Plan
}

// Schema implements Plan.
func (d *Distinct) Schema() table.Schema { return d.Input.Schema() }

// Execute implements Plan.
func (d *Distinct) Execute(ec *ExecCtx) (*Result, error) {
	ec = ec.orBackground()
	in, err := d.Input.Execute(ec)
	if err != nil {
		return nil, err
	}
	out := &Result{Name: in.Name, Schema: in.Schema, Degraded: in.Degraded}
	index := map[string]int{}
	for i, a := range in.Rows {
		if err := ec.checkEvery(i); err != nil {
			return nil, err
		}
		k := a.Row.Key()
		if i, ok := index[k]; ok {
			out.Rows[i].Prov = provenance.Merge(out.Rows[i].Prov, a.Prov)
		} else {
			index[k] = len(out.Rows)
			out.Rows = append(out.Rows, a)
		}
	}
	if err := ec.opDone("Distinct", len(in.Rows), len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

func (d *Distinct) String() string { return fmt.Sprintf("Distinct(%s)", d.Input) }

// ---------------------------------------------------------------- Limit

// Limit keeps the first N rows.
type Limit struct {
	Input Plan
	N     int
}

// Schema implements Plan.
func (l *Limit) Schema() table.Schema { return l.Input.Schema() }

// Execute implements Plan.
func (l *Limit) Execute(ec *ExecCtx) (*Result, error) {
	in, err := l.Input.Execute(ec.orBackground())
	if err != nil {
		return nil, err
	}
	rows := in.Rows
	if l.N >= 0 && l.N < len(rows) {
		rows = rows[:l.N]
	}
	return &Result{Name: in.Name, Schema: in.Schema, Rows: rows, Degraded: in.Degraded}, nil
}

func (l *Limit) String() string { return fmt.Sprintf("Limit[%d](%s)", l.N, l.Input) }
