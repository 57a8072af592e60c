package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// The annotation language is three comment directives:
//
//	//dpi:hotpath            on a function: it (and everything it calls
//	                         inside the module) is per-packet code.
//	//dpi:locked(mu)         on a function: the caller holds the lock
//	                         named mu for the duration of the call.
//	//dpi:guardedby(mu)      on a struct field: only touch it while the
//	                         lock named mu is held.
//	//dpi:ctx                on a function: it is RPC-shaped (crosses the
//	                         control plane or blocks on I/O) and must take
//	                         a context.Context as its first parameter.
//	//dpi:lockorder(a < b)   at file scope (or on a function): declares
//	                         that lock a precedes lock b in the module
//	                         hierarchy — acquiring a while b is held is a
//	                         violation. Lock names are the qualified
//	                         labels the lockorder check prints, e.g.
//	                         "middlebox.DPINode.mu < core.flowShard.mu".
//	//dpi:detached(reason)   on the line of (or the line above) a `go`
//	                         statement: waives the goroutine-lifecycle
//	                         check for a deliberately unsupervised
//	                         goroutine.
//	//dpi:coldalloc(reason)  on the line of (or the line above) a heap
//	                         allocation inside //dpi:hotpath-reachable
//	                         code: waives the -escape proof for an
//	                         allocation that is amortized or on a cold
//	                         branch (first-use setup, error paths,
//	                         match reporting).
//
// A directive may carry a trailing rationale after the closing token:
// "//dpi:hotpath scan loop" parses the same as "//dpi:hotpath".

var directiveRe = regexp.MustCompile(`^//dpi:(\w+)(?:\(([^)]*)\))?(?:\s.*)?$`)

type funcAnnotation struct {
	hotpath bool
	ctx     bool     // RPC-shaped: context.Context must come first
	locked  []string // lock names the caller is contracted to hold
}

// lockOrderRule is one declared //dpi:lockorder(before < after) edge:
// before is legal to hold while acquiring after, never the reverse.
type lockOrderRule struct {
	before, after string
	pos           token.Pos
}

// lineWaiver is one line-anchored waiver comment (//dpi:detached or
// //dpi:coldalloc), matched to the waived statement by file and line
// adjacency (same line, or the line below the comment).
type lineWaiver struct {
	file   string
	line   int
	reason string
	pos    token.Pos
	used   bool
}

// Annotations indexes every //dpi: directive in the module by the
// object it annotates.
type Annotations struct {
	funcs     map[*types.Func]*funcAnnotation
	guarded   map[*types.Var]string // field -> lock name
	lockorder []lockOrderRule
	detached  []*lineWaiver
	coldalloc []*lineWaiver
	diags     []Diagnostic // malformed or misplaced directives
}

func (a *Annotations) funcAnn(fn *types.Func) *funcAnnotation {
	if ann, ok := a.funcs[fn]; ok {
		return ann
	}
	ann := &funcAnnotation{}
	a.funcs[fn] = ann
	return ann
}

func (a *Annotations) isLocked(fn *types.Func, lock string) bool {
	ann, ok := a.funcs[fn]
	if !ok {
		return false
	}
	for _, l := range ann.locked {
		if l == lock {
			return true
		}
	}
	return false
}

// directive is one parsed //dpi: line.
type directive struct {
	name string
	arg  string
	pos  token.Pos
}

// directivesIn extracts //dpi: lines from a comment group.
func directivesIn(cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		if !strings.HasPrefix(c.Text, "//dpi:") {
			continue
		}
		d := directive{pos: c.Pos()}
		if m := directiveRe.FindStringSubmatch(c.Text); m != nil {
			d.name, d.arg = m[1], m[2]
		}
		out = append(out, d)
	}
	return out
}

// Annotate collects every //dpi: directive in the module. Exported for
// callers (cmd/dpilint -escape) that need the annotation index outside
// Run.
func Annotate(m *Module) *Annotations { return collectAnnotations(m) }

// collectAnnotations walks every file once, binding directives to the
// functions and fields they document and reporting malformed or
// misplaced ones.
func collectAnnotations(m *Module) *Annotations {
	ann := &Annotations{
		funcs:   make(map[*types.Func]*funcAnnotation),
		guarded: make(map[*types.Var]string),
	}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			// Comment groups consumed as a func doc or a field
			// doc/trailer; any //dpi: directive outside those spots is
			// dead weight and gets reported.
			consumed := make(map[*ast.CommentGroup]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.FuncDecl:
					consumed[node.Doc] = true
					ann.bindFunc(m, pkg, node)
				case *ast.StructType:
					for _, field := range node.Fields.List {
						consumed[field.Doc] = true
						consumed[field.Comment] = true
						ann.bindField(m, pkg, field)
					}
				}
				return true
			})
			// lockorder declarations live at file scope; detached
			// waivers ride as comments beside `go` statements. Both
			// therefore surface here rather than as a func/field doc.
			for _, cg := range file.Comments {
				if consumed[cg] {
					continue
				}
				for _, d := range directivesIn(cg) {
					switch d.name {
					case "lockorder":
						ann.bindLockOrder(m, d)
					case "detached":
						ann.detached = ann.bindWaiver(m, ann.detached, d,
							"//dpi:detached needs a reason: //dpi:detached(why this goroutine is unsupervised)")
					case "coldalloc":
						ann.coldalloc = ann.bindWaiver(m, ann.coldalloc, d,
							"//dpi:coldalloc needs a reason: //dpi:coldalloc(why this allocation is amortized or cold)")
					default:
						ann.report(m, d.pos, "a //dpi: directive must be in a function or struct-field doc comment")
					}
				}
			}
		}
	}
	return ann
}

func (a *Annotations) bindFunc(m *Module, pkg *Package, decl *ast.FuncDecl) {
	ds := directivesIn(decl.Doc)
	if len(ds) == 0 {
		return
	}
	fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	for _, d := range ds {
		switch {
		case d.name == "hotpath" && d.arg == "":
			a.funcAnn(fn).hotpath = true
		case d.name == "ctx" && d.arg == "":
			a.funcAnn(fn).ctx = true
		case d.name == "locked" && d.arg != "":
			fa := a.funcAnn(fn)
			fa.locked = append(fa.locked, d.arg)
		case d.name == "lockorder":
			a.bindLockOrder(m, d)
		case d.name == "detached" || d.name == "coldalloc":
			a.report(m, d.pos, "//dpi:"+d.name+" goes on the line of (or above) the statement it waives, not the function doc")
		case d.name == "guardedby":
			a.report(m, d.pos, "//dpi:guardedby annotates struct fields, not functions")
		default:
			a.report(m, d.pos, "malformed directive: want //dpi:hotpath, //dpi:ctx or //dpi:locked(lockname)")
		}
	}
}

func (a *Annotations) bindField(m *Module, pkg *Package, field *ast.Field) {
	var ds []directive
	ds = append(ds, directivesIn(field.Doc)...)
	ds = append(ds, directivesIn(field.Comment)...)
	if len(ds) == 0 {
		return
	}
	for _, d := range ds {
		switch {
		case d.name == "guardedby" && d.arg != "":
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					a.guarded[v] = d.arg
				}
			}
		case d.name == "hotpath" || d.name == "locked" || d.name == "ctx" || d.name == "lockorder" || d.name == "detached" || d.name == "coldalloc":
			a.report(m, d.pos, "//dpi:"+d.name+" annotates functions, not fields")
		default:
			a.report(m, d.pos, "malformed directive: want //dpi:guardedby(lockname)")
		}
	}
}

// bindWaiver records one line-anchored waiver directive, or reports it
// when the reason is missing.
func (a *Annotations) bindWaiver(m *Module, list []*lineWaiver, d directive, errMsg string) []*lineWaiver {
	if d.arg == "" {
		a.report(m, d.pos, errMsg)
		return list
	}
	pos := m.Fset.Position(d.pos)
	return append(list, &lineWaiver{file: pos.Filename, line: pos.Line, reason: d.arg, pos: d.pos})
}

// bindLockOrder parses one //dpi:lockorder(a < b) directive.
func (a *Annotations) bindLockOrder(m *Module, d directive) {
	before, after, ok := strings.Cut(d.arg, "<")
	before, after = strings.TrimSpace(before), strings.TrimSpace(after)
	if !ok || before == "" || after == "" {
		a.report(m, d.pos, "malformed directive: want //dpi:lockorder(lockA < lockB)")
		return
	}
	a.lockorder = append(a.lockorder, lockOrderRule{before: before, after: after, pos: d.pos})
}

func (a *Annotations) report(m *Module, pos token.Pos, msg string) {
	a.diags = append(a.diags, Diagnostic{Pos: m.Fset.Position(pos), Check: "annotation", Msg: msg})
}
