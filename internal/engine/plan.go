// Package engine implements CopyCat's query engine: a small in-memory
// relational executor in the style of the ORCHESTRA system (§2.3), whose
// distinguishing feature is that every result tuple is annotated with
// semiring how-provenance. The integration learner compiles its candidate
// queries into these plans; the workspace displays the results as
// auto-completions and uses the provenance to explain them and to route
// tuple-level feedback back to queries.
//
// Supported operators: scan, select, project, rename, hash join,
// dependent join (per-row service invocation), record-link join
// (similarity join), union, distinct, and limit.
package engine

import (
	"fmt"

	"copycat/internal/provenance"
	"copycat/internal/table"
)

// Service abstracts a callable source with input binding restrictions — a
// web form, geocoder, zip resolver, currency converter (§4: "Services can
// be modeled as relations that take input parameters"). Call receives the
// bound input values and returns zero or more output tuples containing
// only the service's output attributes.
type Service interface {
	// Name identifies the service in catalogs, provenance, and the
	// source graph.
	Name() string
	// InputSchema lists the required input attributes in call order.
	InputSchema() table.Schema
	// OutputSchema lists the produced output attributes.
	OutputSchema() table.Schema
	// Call invokes the service for one binding of the inputs.
	Call(inputs table.Tuple) ([]table.Tuple, error)
}

// Result is an executed relation: a schema plus provenance-annotated rows.
type Result struct {
	Name   string
	Schema table.Schema
	Rows   []provenance.Annotated
	// Degraded counts input rows anywhere in this result's plan whose
	// service lookups failed transiently after retries and were skipped
	// (or null-padded) instead of failing the plan. Non-zero means the
	// result is partial; the workspace surfaces it as a "partial
	// results (N rows degraded)" marker.
	Degraded int
}

// Relation strips provenance, yielding a plain table for display/export.
func (r *Result) Relation() *table.Relation {
	rel := table.NewRelation(r.Name, r.Schema.Clone())
	for _, a := range r.Rows {
		rel.Rows = append(rel.Rows, a.Row)
	}
	return rel
}

// Plan is a query plan node.
type Plan interface {
	// Schema is the output schema of the node.
	Schema() table.Schema
	// Execute evaluates the plan under an execution context, producing
	// annotated rows. Operators honor the context's deadline/cancellation
	// and row budget, and tally per-operator counters into its Stats. A
	// nil context is upgraded to Background.
	Execute(ec *ExecCtx) (*Result, error)
	// String renders a one-line description of the operator tree.
	String() string
}

// ---------------------------------------------------------------- Scan

// Scan reads a base relation, annotating row i with Leaf "<name>:<i>".
type Scan struct {
	Rel *table.Relation
}

// NewScan wraps a relation as a plan leaf.
func NewScan(rel *table.Relation) *Scan { return &Scan{Rel: rel} }

// Schema implements Plan.
func (s *Scan) Schema() table.Schema { return s.Rel.Schema }

// Execute implements Plan.
func (s *Scan) Execute(ec *ExecCtx) (*Result, error) {
	ec = ec.orBackground()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	res := &Result{Name: s.Rel.Name, Schema: s.Rel.Schema}
	for i, row := range s.Rel.Rows {
		res.Rows = append(res.Rows, provenance.Annotated{
			Row:  row,
			Prov: provenance.Leaf{ID: provenance.BaseID(s.Rel.Name, i), Source: s.Rel.Name},
		})
	}
	if err := ec.opDone("Scan", 0, len(res.Rows)); err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Scan) String() string { return fmt.Sprintf("Scan(%s)", s.Rel.Name) }

// ---------------------------------------------------------------- Values

// Values is a pre-annotated in-memory input — e.g. the current workspace
// contents, whose rows already carry provenance from earlier queries.
type Values struct {
	Name    string
	Schema_ table.Schema
	Rows    []provenance.Annotated
}

// Schema implements Plan.
func (v *Values) Schema() table.Schema { return v.Schema_ }

// Execute implements Plan.
func (v *Values) Execute(ec *ExecCtx) (*Result, error) {
	ec = ec.orBackground()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if err := ec.opDone("Values", 0, len(v.Rows)); err != nil {
		return nil, err
	}
	return &Result{Name: v.Name, Schema: v.Schema_, Rows: v.Rows}, nil
}

func (v *Values) String() string { return fmt.Sprintf("Values(%s,%d rows)", v.Name, len(v.Rows)) }

// ---------------------------------------------------------------- Select

// Select filters rows by a predicate.
type Select struct {
	Input Plan
	Pred  func(table.Tuple) bool
	Desc  string // human-readable predicate description
}

// Schema implements Plan.
func (s *Select) Schema() table.Schema { return s.Input.Schema() }

// Execute implements Plan.
func (s *Select) Execute(ec *ExecCtx) (*Result, error) {
	ec = ec.orBackground()
	in, err := s.Input.Execute(ec)
	if err != nil {
		return nil, err
	}
	out := &Result{Name: in.Name, Schema: in.Schema, Degraded: in.Degraded}
	for i, a := range in.Rows {
		if err := ec.checkEvery(i); err != nil {
			return nil, err
		}
		if s.Pred(a.Row) {
			out.Rows = append(out.Rows, a)
		}
	}
	if err := ec.opDone("Select", len(in.Rows), len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *Select) String() string {
	return fmt.Sprintf("Select[%s](%s)", s.Desc, s.Input)
}

// ---------------------------------------------------------------- Project

// Project keeps the columns at the given input positions, in order.
type Project struct {
	Input Plan
	Cols  []int
}

// NewProjectByName builds a projection from column names; it errors if a
// name is missing from the input schema.
func NewProjectByName(input Plan, names ...string) (*Project, error) {
	sch := input.Schema()
	cols := make([]int, len(names))
	for i, n := range names {
		j := sch.Index(n)
		if j < 0 {
			return nil, fmt.Errorf("engine: project: no column %q in %s", n, sch)
		}
		cols[i] = j
	}
	return &Project{Input: input, Cols: cols}, nil
}

// Schema implements Plan.
func (p *Project) Schema() table.Schema {
	in := p.Input.Schema()
	out := make(table.Schema, len(p.Cols))
	for i, c := range p.Cols {
		out[i] = in[c]
	}
	return out
}

// Execute implements Plan.
func (p *Project) Execute(ec *ExecCtx) (*Result, error) {
	ec = ec.orBackground()
	in, err := p.Input.Execute(ec)
	if err != nil {
		return nil, err
	}
	out := &Result{Name: in.Name, Schema: p.Schema(), Degraded: in.Degraded}
	for _, a := range in.Rows {
		row := make(table.Tuple, len(p.Cols))
		for i, c := range p.Cols {
			if c < 0 || c >= len(a.Row) {
				return nil, fmt.Errorf("engine: project: column %d out of range (arity %d)", c, len(a.Row))
			}
			row[i] = a.Row[c]
		}
		out.Rows = append(out.Rows, provenance.Annotated{Row: row, Prov: a.Prov})
	}
	if err := ec.opDone("Project", len(in.Rows), len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Project) String() string { return fmt.Sprintf("Project%v(%s)", p.Cols, p.Input) }

// ---------------------------------------------------------------- Rename

// Rename relabels output columns (and optionally the relation name)
// without touching data.
type Rename struct {
	Input   Plan
	Name    string
	Columns []string // new names; empty string keeps the old name
}

// Schema implements Plan.
func (r *Rename) Schema() table.Schema {
	s := r.Input.Schema().Clone()
	for i := range s {
		if i < len(r.Columns) && r.Columns[i] != "" {
			s[i].Name = r.Columns[i]
		}
	}
	return s
}

// Execute implements Plan.
func (r *Rename) Execute(ec *ExecCtx) (*Result, error) {
	in, err := r.Input.Execute(ec.orBackground())
	if err != nil {
		return nil, err
	}
	name := r.Name
	if name == "" {
		name = in.Name
	}
	return &Result{Name: name, Schema: r.Schema(), Rows: in.Rows, Degraded: in.Degraded}, nil
}

func (r *Rename) String() string { return fmt.Sprintf("Rename(%s)", r.Input) }

// ---------------------------------------------------------------- Join

// HashJoin is an equijoin on one or more column pairs. The output schema
// is left ++ right (with collision renaming); matched rows' provenance is
// combined with ⊗.
type HashJoin struct {
	Left, Right         Plan
	LeftCols, RightCols []int
}

// NewHashJoinByName builds an equijoin from column-name pairs.
func NewHashJoinByName(left, right Plan, on [][2]string) (*HashJoin, error) {
	ls, rs := left.Schema(), right.Schema()
	j := &HashJoin{Left: left, Right: right}
	for _, pair := range on {
		li, ri := ls.Index(pair[0]), rs.Index(pair[1])
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("engine: join: columns %q/%q not found", pair[0], pair[1])
		}
		j.LeftCols = append(j.LeftCols, li)
		j.RightCols = append(j.RightCols, ri)
	}
	if len(j.LeftCols) == 0 {
		return nil, fmt.Errorf("engine: join: no join columns")
	}
	return j, nil
}

// Schema implements Plan.
func (j *HashJoin) Schema() table.Schema {
	return j.Left.Schema().Concat(j.Right.Schema())
}

// Execute implements Plan.
func (j *HashJoin) Execute(ec *ExecCtx) (*Result, error) {
	ec = ec.orBackground()
	l, err := j.Left.Execute(ec)
	if err != nil {
		return nil, err
	}
	r, err := j.Right.Execute(ec)
	if err != nil {
		return nil, err
	}
	// Build hash table on the right.
	index := make(map[string][]provenance.Annotated, len(r.Rows))
	for i, a := range r.Rows {
		if err := ec.checkEvery(i); err != nil {
			return nil, err
		}
		k, err := joinKey(a.Row, j.RightCols)
		if err != nil {
			return nil, err
		}
		index[k] = append(index[k], a)
	}
	out := &Result{Name: l.Name + "⋈" + r.Name, Schema: j.Schema(), Degraded: l.Degraded + r.Degraded}
	for i, la := range l.Rows {
		if err := ec.checkEvery(i); err != nil {
			return nil, err
		}
		k, err := joinKey(la.Row, j.LeftCols)
		if err != nil {
			return nil, err
		}
		for _, ra := range index[k] {
			row := append(la.Row.Clone(), ra.Row...)
			out.Rows = append(out.Rows, provenance.Annotated{
				Row:  row,
				Prov: provenance.Join(la.Prov, ra.Prov),
			})
		}
	}
	if err := ec.opDone("HashJoin", len(l.Rows)+len(r.Rows), len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

func joinKey(row table.Tuple, cols []int) (string, error) {
	key := make(table.Tuple, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(row) {
			return "", fmt.Errorf("engine: join column %d out of range (arity %d)", c, len(row))
		}
		key[i] = row[c]
	}
	return key.Key(), nil
}

func (j *HashJoin) String() string {
	return fmt.Sprintf("Join%v=%v(%s, %s)", j.LeftCols, j.RightCols, j.Left, j.Right)
}
