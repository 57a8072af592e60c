package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The guardedby check enforces lock discipline lexically, the way a
// reviewer reads the code: an access to a field annotated
// //dpi:guardedby(mu) is legal when an earlier statement of the same
// function locked a mutex whose terminal name is "mu" and no unlock has
// intervened, or when the enclosing function is annotated
// //dpi:locked(mu), meaning its contract obliges the caller to hold the
// lock. A deferred unlock keeps the lock held through the end of the
// function, so it never closes the lexical critical section.
//
// Matching locks by name rather than by object identity is deliberate:
// it keeps the rule explainable at a glance, and it lets the fields of
// one struct (the flow table's core.flowBucket and core.flowEntry) be
// guarded by the lock of another (the owning core.flowShard's mu)
// without an ownership calculus. The race detector remains the backstop
// for what a lexical rule cannot see.
//
// Two common acquisition shapes are recognized rather than flagged:
// mu.TryLock()/mu.TryRLock() count as acquisitions (the code guarded by
// a TryLock is written assuming success — the failure branch returns
// before touching guarded state), and the RLock→Lock upgrade idiom
// (RLock, read, RUnlock, Lock, write, Unlock) naturally satisfies the
// event ledger because read and write acquisitions of one name share a
// held-count.

// lockEvent is one Lock/Unlock call, ordered by position.
type lockEvent struct {
	pos    token.Pos
	name   string
	locked bool // true for Lock/RLock
}

func checkGuardedBy(m *Module, ann *Annotations) []Diagnostic {
	if len(ann.guarded) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				diags = append(diags, checkFuncLocks(m, pkg, fd, fn, ann)...)
			}
		}
	}
	return diags
}

type guardedAccess struct {
	pos   token.Pos
	field *types.Var
	lock  string
}

func checkFuncLocks(m *Module, pkg *Package, fd *ast.FuncDecl, fn *types.Func, ann *Annotations) []Diagnostic {
	var events []lockEvent
	var accesses []guardedAccess
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.DeferStmt:
			deferred[node.Call] = true
		case *ast.CallExpr:
			if name, method, ok := isSyncLock(pkg.Info, node); ok {
				locked := acquiresLock(method)
				if !locked && deferred[node] {
					// Deferred unlock: the lock is held until return,
					// which a lexical scan models as "never released".
					return true
				}
				events = append(events, lockEvent{pos: node.Pos(), name: name, locked: locked})
			}
		case *ast.SelectorExpr:
			sel, ok := pkg.Info.Selections[node]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			field, ok := sel.Obj().(*types.Var)
			if !ok {
				return true
			}
			if lock, guarded := ann.guarded[field]; guarded {
				accesses = append(accesses, guardedAccess{pos: node.Sel.Pos(), field: field, lock: lock})
			}
		}
		return true
	})
	if len(accesses) == 0 {
		return nil
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	var diags []Diagnostic
	for _, acc := range accesses {
		if fn != nil && ann.isLocked(fn, acc.lock) {
			continue
		}
		held := 0
		for _, ev := range events {
			if ev.pos >= acc.pos || ev.name != acc.lock {
				continue
			}
			if ev.locked {
				held++
			} else if held > 0 {
				held--
			}
		}
		if held == 0 {
			diags = append(diags, Diagnostic{
				Pos:   m.Fset.Position(acc.pos),
				Check: "guardedby",
				Msg: "field " + acc.field.Name() + " is guarded by " + acc.lock +
					", which is not held here (lock it, or annotate the function //dpi:locked(" + acc.lock + "))",
			})
		}
	}
	return diags
}
