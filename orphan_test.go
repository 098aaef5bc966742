package pfm

// ROADMAP aim 2's "exported API only its own tests call" as a failing test.

import (
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// orphanAllowed: names under internal/* or in the facade that no main
// reaches, and config fields no main sets, that stay anyway, each with why.
// A trailing '*' matches a prefix. What an allowed name calls is kept with
// it; an entry that excuses nothing fails.
var orphanAllowed = map[string]string{
	// Oracles and fixtures: what a test holds reached code to, or builds its input with.
	"hsmm.durationDist.logPDF": "oracle for the prepared duration table (TestDurationTableMatchesLogPDF)",
	"ubf.Kernel.Eval":          "oracle for the flat kernel bank (flat_test.go, kernel_test.go)",
	"ubf.Network.EvalAll":      "oracle for the flat kernel bank's rows (flat_test.go)",
	"mat.FromRows":             "fixture for the Expm, LU, phase-type, UBF-selection and stacker tests",
	"mat.Matrix.Equalish":      "oracle comparison of the Expm, LU and feature-matrix tests",
	"experiments.CheckEq14":    "oracle for E4 (TestRunModelReproducesEq14)",
	"stats.RNG.Shuffle":        "fixture for TestMaxFMeasureMatchesQuadratic's tied score pools",
	// Observation points: how a test reads state that reached code writes.
	"obs.IncidentBundle.Fingerprint":         "TestRecorderIncidentReplay compares bundles by it",
	"obs.Recorder.Config":                    "service TestBurnRateArmed, TestRecorderConfigValidation",
	"obs.Recorder.Pending":                   "TestCycleBatchSteadyStateZeroAllocs' no-trigger precondition",
	"obs.ScopedLedger.Config":                "TestFoldedJournalMatchesPerTenantRows builds its oracle ledger from it",
	"obs.Tracer.Snapshot":                    "TestRecorderIncidentReplay and the tracer oracle read spans through it",
	"experiments.SelectionResult.ByStrategy": "E8's acceptance test reads rows by it",
	"baseline.FailureTracker.Shape":          "fitted Weibull shape, read by the tracker tests",
	"changepoint.AutoCUSUM.Ready":            "warm-up state, read by the AutoCUSUM tests",
	"changepoint.AutoCUSUM.Reference":        "calibrated (μ0, σ), read by the AutoCUSUM tests",
	"checkpoint.Store.Len":                   "TestStoreOrdering and TestPeriodicPolicy count checkpoints",
	"ctmc.Chain.Rate":                        "pfmmodel TestChainStructure reads Fig. 9's arcs; ctmc's balance property",
	"eventlog.Log.TypeAt":                    "TestBatchSerialParity's serial oracle reads the mirror log",
	"fleet.Fleet.Running":                    "TestShell",
	"runtime.Runtime.Running":                "TestShell",
	"runtime.Runtime.Recorder":               "TestRecorderIncidentReplay, TestCycleBatchSteadyStateZeroAllocs",
	"runtime.Runtime.Tracer":                 "TestRecorderIncidentReplay, the tracez tests",
	"hsmm.Model.AlphabetSize":                "TestAlphabetIncludesCatchAll",
	"hsmm.Model.Family":                      "TestExponentialFamily, the kernel reference's model builder",
	"hsmm.Predictor.Classifier":              "TestBatchSerialParity's serial oracle scores with it",
	"hsmm.Predictor.Generation":              "retrain counter, read by the predictor and churn-parity tests",
	"ubf.Predictor.Generation":               "retrain counter, read by the predictor and churn-parity tests",
	"ubf.Predictor.Network":                  "TestBatchSerialParity's serial oracle scores with it",
	"pfmmodel.Params.Reliability":            "Eq. 9 at one point: the subject of ExampleParams_Reliability",
	"scp.System.Intervals":                   "Eq. 2 evaluation history, read by the simulator tests",
	"scp.System.TotalDowntime":               "downtime accounting, read by the simulator tests",
	"sim.Engine.Pending":                     "TestRunHorizonLeavesFutureEvents",
	"fleet.Fleet.Ingest":                     "how the fleet tests (parity, churn, overload, shell) feed one event; Pump takes the pointer form under it",
	"fleet.Fleet.RecordFailure":              "Ingest's twin for failure marks in the same tests; Pump resolves the tenant once and calls what is under it",
	// Owned by a ROADMAP item or a DESIGN.md map: decided there, not here.
	"act.Category.Goal":         "DESIGN.md's Fig. 7 → code map (Goal and its two values with it)",
	"act.Action.Category":       "DESIGN.md's Fig. 7 → code map",
	"act.NewPreventiveFailover": "DESIGN.md's Fig. 7 → code map: one of the five countermeasures",
	"act.NewLoadLowering":       "DESIGN.md's Fig. 7 → code map: one of the five countermeasures",
	"act.NewPreparedRepair":     "DESIGN.md's Fig. 7 → code map: one of the five countermeasures",
	"ubf.SaveNetwork":           "ROADMAP item 4(a) decides the UBF network file's fate with the product stack",
	"ubf.LoadNetwork":           "ROADMAP item 4(a) decides the UBF network file's fate with the product stack",
	// Config fields no main sets: a value only a test, a sweep or the
	// package itself varies.
	"fleet.Config.Workers":                         "a shape axis of TestFleetDeterministicAcrossShapes; its GOMAXPROCS default differs by machine",
	"fleet.Config.BatchSize":                       "a shape axis of TestFleetDeterministicAcrossShapes",
	"hsmm.Config.Family":                           "the kernel reference's exponential builder (TestExponentialFamily, reference_test.go)",
	"ubf.TrainConfig.PureRBF":                      "the pure-RBF arm of TestMixedKernelsBeatPureRBFOnStep, EXPERIMENTS.md's Eq. 1 row",
	"lifecycle.Config.SyncRetrain":                 "the lifecycle tests need deterministic retrains",
	"obs.RecorderConfig.Scope":                     "ScopedRecorder sets it once per scope",
	"experiments.CaseStudyConfig.LeadTime":         "RunLeadTimeSweep varies it",
	"pfmmodel.RejuvenationParams.RejuvenationRate": "swept inside its own package (the ρ sweep)",
	"service.Config.Serving":                       "pfmd's test seam: told the bound address",
	"service.Config.Drained":                       "pfmd's test seam: scrapes the endpoints after the drain",
	"scp.Config.*":                                 "the simulated world's parameters, not the product's",
}

type importFn func(string) (*types.Package, error)

func (f importFn) Import(path string) (*types.Package, error) { return f(path) }

// TestNoOrphanSurface: every package-level func, method, type, var and const
// under internal/* or in the facade is reachable from a main under cmd/,
// examples/ or bench/pfmbench — test files excluded, methods of a reached
// type counting when an interface of the module or the standard library
// names them — or is on orphanAllowed. The facade's exported names are not
// roots: the facade keeps what a main uses.
func TestNoOrphanSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	fset := token.NewFileSet()
	exports := map[string]string{} // standard library: import path → export data file
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	conf := types.Config{Importer: importFn(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	decl := map[types.Object]ast.Node{} // the syntax that reaching an object pulls in
	names := map[types.Object]string{}  // internal/* objects, as reported
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var roots []types.Object
	for _, dir := range []string{".", "bench/pfmbench"} {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Name,Dir,Export,GoFiles,Standard", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(strings.NewReader(string(out))); dec.More(); {
			var p struct {
				ImportPath, Name, Dir, Export string
				GoFiles                       []string
				Standard                      bool
			}
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
			}
			if p.Standard || checked[p.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, p.Dir+"/"+name, nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			pkg, err := conf.Check(p.ImportPath, fset, files, info) // -deps lists dependencies first
			if err != nil {
				t.Fatalf("type-check %s: %v", p.ImportPath, err)
			}
			checked[p.ImportPath] = pkg
			add := func(id *ast.Ident, name string, n ast.Node) {
				obj := info.Defs[id]
				decl[obj] = n
				switch {
				case id.Name == "_", id.Name == "main" && p.Name == "main":
					roots = append(roots, obj) // `var _ I = T{}` names T
				case p.ImportPath == "repro", strings.Contains(p.ImportPath, "/internal/"):
					names[obj] = p.Name + "." + name // the facade answers to the mains like internal/* does
				}
			}
			for _, f := range files {
				for _, d := range f.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						name := d.Name.Name
						if d.Recv != nil {
							recv := d.Recv.List[0].Type
							if star, ok := recv.(*ast.StarExpr); ok {
								recv = star.X
							}
							if generic, ok := recv.(*ast.IndexExpr); ok {
								recv = generic.X
							}
							name = recv.(*ast.Ident).Name + "." + name
						}
						add(d.Name, name, d)
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch spec := spec.(type) {
							case *ast.TypeSpec:
								add(spec.Name, spec.Name.Name, spec)
							case *ast.ValueSpec:
								for _, id := range spec.Names {
									add(id, id.Name, spec)
								}
							}
						}
					}
				}
			}
			for _, imp := range pkg.Imports() { // the standard library's named interfaces
				for _, name := range imp.Scope().Names() {
					if it, ok := imp.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok && exports[imp.Path()] != "" {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
	}
	for _, tv := range info.Types { // the module's interfaces, declared or literal
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			ifaces = append(ifaces, it)
		}
	}

	seen := map[types.Object]bool{}
	var queue []types.Object
	reach := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := decl[obj]; ok && !seen[obj] {
			seen[obj] = true
			queue = append(queue, obj)
		}
	}
	drain := func() {
		for len(queue) > 0 {
			obj := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(decl[obj], func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					reach(info.Uses[id])
				}
				return true
			})
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !ok || !isType || named.TypeParams() != nil {
				continue
			}
			for _, it := range ifaces { // a reached type answers to every interface it satisfies
				for i := 0; i < it.NumMethods() && types.Implements(types.NewPointer(named), it); i++ {
					m, _, _ := types.LookupFieldOrMethod(named, true, obj.Pkg(), it.Method(i).Name())
					reach(m)
				}
			}
		}
	}
	for _, obj := range roots {
		reach(obj)
	}
	drain()

	// What the mains set: a field written by reached code outside the
	// field's own package, as a composite-literal key, by assignment, or by
	// taking its address (a flag binding).
	set := map[*types.Var]bool{}
	for obj := range seen {
		mark := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			if id, ok := e.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != obj.Pkg() {
					set[v.Origin()] = true
				}
			}
		}
		ast.Inspect(decl[obj], func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				mark(n.Key)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
			}
			return true
		})
	}

	excuses := map[string]bool{}
	allowed := func(name string) bool {
		ok := false
		for pat := range orphanAllowed {
			if pat == name || strings.HasSuffix(pat, "*") && strings.HasPrefix(name, strings.TrimSuffix(pat, "*")) {
				excuses[pat] = true
				ok = true
			}
		}
		return ok
	}
	for obj, name := range names {
		if !seen[obj] && allowed(name) {
			reach(obj)
		}
	}
	drain()
	for obj, name := range names {
		if !seen[obj] {
			t.Errorf("%s: no main under cmd/, examples/ or bench/pfmbench reaches it — delete it, or add it to orphanAllowed with its reason", name)
		}
	}
	configType := regexp.MustCompile(`(Config|Spec|Params|Template)$`)
	for obj, name := range names { // a config field with one value in use is a constant
		st, isStruct := obj.Type().Underlying().(*types.Struct)
		if _, isType := obj.(*types.TypeName); !isType || !isStruct || !obj.Exported() ||
			!strings.Contains(obj.Pkg().Path(), "/internal/") || !configType.MatchString(name) {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !set[f] && !allowed(name+"."+f.Name()) {
				t.Errorf("%s.%s: no main under cmd/, examples/ or bench/pfmbench sets it — make it a constant, or add it to orphanAllowed with its reason", name, f.Name())
			}
		}
	}
	for pat, why := range orphanAllowed {
		if !excuses[pat] || why == "" {
			t.Errorf("orphanAllowed[%q] excuses nothing unreached or unset, or gives no reason — drop it", pat)
		}
	}
}

// TestExamplesUseTheFacade: an example shows the importable API, so none
// imports repro/internal/*.
func TestExamplesUseTheFacade(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}: {{join .Imports " "}}`, "./examples/...").Output()
	if err != nil || len(out) == 0 || strings.Contains(string(out), "repro/internal/") {
		t.Errorf("go list ./examples/... (err %v) shows an internal import:\n%s", err, out)
	}
}
