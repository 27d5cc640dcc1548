package plan

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/expr"
)

// Decomposition is the result of splitting Q = Qf ⋈ Qs: the metadata
// branch Qf (to be executed in the first stage), and the full plan with
// the Qf subtree replaced by a ResultScan (Qs, to be executed in the
// second stage after the run-time optimization phase).
type Decomposition struct {
	// Qf is the metadata branch: the highest subtree whose leaves are all
	// metadata-table scans.
	Qf Node
	// Qs is the rest of the query with Qf replaced by ResultScan(Name).
	Qs Node
	// Name is the result-scan identifier binding the two stages.
	Name string
	// MetadataOnly is true when the whole query is Qf: the first stage
	// answers it and no actual data is ever ingested.
	MetadataOnly bool
}

// Decompose splits an optimized plan into Q = Qf ⋈ Qs per section 3 of
// the paper. It returns ok=false if the plan references no metadata
// table at all (then there is nothing to run in the first stage and the
// caller treats every file as potentially of interest).
func Decompose(root Node, cat *catalog.Catalog, name string) (Decomposition, bool) {
	if isMetadataOnly(root, cat) {
		return Decomposition{Qf: root, Qs: nil, Name: name, MetadataOnly: true}, true
	}
	qf := findQf(root, cat)
	if qf == nil {
		return Decomposition{}, false
	}
	rs := &ResultScan{Name: name, Cols: qf.Schema()}
	qs := replaceSubtree(root, qf, rs)
	return Decomposition{Qf: qf, Qs: qs, Name: name}, true
}

// findQf locates the highest branch whose leaves are all metadata scans.
func findQf(n Node, cat *catalog.Catalog) Node {
	if isMetadataOnly(n, cat) {
		return n
	}
	for _, c := range n.Children() {
		if qf := findQf(c, cat); qf != nil {
			return qf
		}
	}
	return nil
}

// replaceSubtree swaps the subtree identical to target (pointer
// equality) with replacement.
func replaceSubtree(root, target, replacement Node) Node {
	if root == target {
		return replacement
	}
	children := root.Children()
	if len(children) == 0 {
		return root
	}
	newChildren := make([]Node, len(children))
	changed := false
	for i, c := range children {
		newChildren[i] = replaceSubtree(c, target, replacement)
		if newChildren[i] != c {
			changed = true
		}
	}
	if !changed {
		return root
	}
	return root.withChildren(newChildren)
}

// ActualScanInfo describes one actual-data scan found in Qs that rewrite
// rule (1) will expand.
type ActualScanInfo struct {
	Binding   string
	TableName string
	Def       catalog.TableDef
	// Pred is the selection sitting immediately above the scan (σp3), if
	// any; rule (1) pushes it into each mount/cache-scan.
	Pred expr.Expr
}

// FindActualScans lists the actual-data scans remaining in a plan.
func FindActualScans(root Node, cat *catalog.Catalog) []ActualScanInfo {
	var out []ActualScanInfo
	seen := make(map[string]bool)
	var walk func(n Node, preds []expr.Expr)
	walk = func(n Node, preds []expr.Expr) {
		switch t := n.(type) {
		case *Select:
			walk(t.Child, append(preds, t.Pred))
			return
		case *Scan:
			if t.Def.Kind == catalog.ActualData && !seen[t.Binding] {
				seen[t.Binding] = true
				out = append(out, ActualScanInfo{
					Binding: t.Binding, TableName: t.TableName, Def: t.Def,
					Pred: expr.JoinAnd(preds),
				})
			}
			return
		}
		for _, c := range n.Children() {
			walk(c, nil)
		}
	}
	walk(root, nil)
	return out
}

// MountSpec tells ApplyRule1 how to access one file of interest: from
// the cache (f ∈ C) or by mounting it.
type MountSpec struct {
	URI    string
	Cached bool
	// EstBytes is the statistics-free planner's estimate of the bytes
	// mounting this file will buffer; 0 means unknown (admission then
	// charges the stat size).
	EstBytes int64
}

// ApplyRule1 is the paper's rewrite rule (1), applied at run time
// between the two stages:
//
//	scan(a) → ⋃_{f ∈ result-scan(Qf)} { cache-scan(f) if f ∈ C
//	                                    mount(f)      otherwise }
//
// Every actual-data scan of the given binding is replaced by a union of
// per-file access paths; a selection sitting directly above the scan is
// fused into each union input (σ∘mount / σ∘cache-scan). An empty file
// list produces an empty union, which executes to zero rows.
func ApplyRule1(root Node, binding, adapter string, files []MountSpec) Node {
	// Top-down: the Select(Scan) pattern must be matched before the scan
	// itself is rewritten, so σp3 can be fused into each union input.
	var pred expr.Expr
	var scan *Scan
	if sel, selOK := root.(*Select); selOK {
		if inner, innerOK := sel.Child.(*Scan); innerOK {
			pred = sel.Pred
			scan = inner
		}
	} else if s, sOK := root.(*Scan); sOK {
		scan = s
	}
	if scan != nil && scan.Binding == binding && scan.Def.Kind == catalog.ActualData {
		inputs := make([]Node, 0, len(files))
		for _, f := range files {
			if f.Cached {
				inputs = append(inputs, &CacheScan{
					URI: f.URI, Adapter: adapter, Binding: scan.Binding, Def: scan.Def, Pred: pred,
					EstBytes: f.EstBytes,
				})
			} else {
				inputs = append(inputs, &Mount{
					URI: f.URI, Adapter: adapter, Binding: scan.Binding, Def: scan.Def, Pred: pred,
					EstBytes: f.EstBytes,
				})
			}
		}
		return &UnionAll{Inputs: inputs, Cols: scan.Schema()}
	}
	children := root.Children()
	if len(children) == 0 {
		return root
	}
	newChildren := make([]Node, len(children))
	changed := false
	for i, c := range children {
		newChildren[i] = ApplyRule1(c, binding, adapter, files)
		if newChildren[i] != c {
			changed = true
		}
	}
	if !changed {
		return root
	}
	return root.withChildren(newChildren)
}

// CollectURIColumn returns the qualified name of the Qf output column
// that joins against the given actual-data binding's URI column, by
// inspecting the join directly above the ResultScan. This is how the
// engine knows which result column holds the files of interest.
func CollectURIColumn(qs Node, rsName, actualBinding, uriColumn string) (string, error) {
	want := actualBinding + "." + uriColumn
	var found string
	Walk(qs, func(n Node) {
		j, ok := n.(*Join)
		if !ok || found != "" {
			return
		}
		// The result-scan must be on one side of this join.
		hasRS := false
		for _, side := range []Node{j.Left, j.Right} {
			Walk(side, func(x Node) {
				if rs, ok := x.(*ResultScan); ok && rs.Name == rsName {
					hasRS = true
				}
			})
		}
		if !hasRS {
			return
		}
		for i := range j.LeftKeys {
			if j.LeftKeys[i] == want {
				found = j.RightKeys[i]
				return
			}
			if j.RightKeys[i] == want {
				found = j.LeftKeys[i]
				return
			}
		}
	})
	if found == "" {
		return "", fmt.Errorf("plan: no join links %s to result-scan %s", want, rsName)
	}
	return found, nil
}

// ReplaceNode swaps the subtree identical to target (pointer equality)
// with replacement — exported for engine-level plan surgery such as
// multi-stage execution's per-round union.
func ReplaceNode(root, target, replacement Node) Node {
	return replaceSubtree(root, target, replacement)
}
