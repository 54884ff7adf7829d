package sirius

// Every non-test function outside package main earns its place: one of
// the repository's binaries links it, or keepUnlinked names it with the
// reason it stays. The test builds the binaries with inlining off in
// this module (so a function inlined at every call site still has a
// symbol), reads their symbol tables with `go tool nm`, and reports each
// declaration that has no symbol in any of them.

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath is the import path of the repository's root module.
const modulePath = "sirius"

const (
	closRef     = "the packet-level Clos model, the reference clos.TestFluidModelValidation checks the fluid model against"
	scheduleRef = "the invariant every schedule family is checked against in the schedule tests"
	awgrRef     = "the schedule tests route the grouped schedule's wavelengths through the grating"
	rootAPI     = "the root package's exported API, shown by its Example"
)

// keepUnlinked lists what no binary links but must stay, each with its
// reason. A key names one declaration as declName prints it
// ("sirius/internal/x.F", "sirius/internal/x.T.M",
// "sirius/internal/x.(*T).M") or a whole package by its import path.
var keepUnlinked = map[string]string{
	"sirius/internal/clos":                     closRef,
	"sirius/internal/eventq.(*Queue).Schedule": closRef,
	"sirius/internal/eventq.(*Queue).Recycle":  closRef,
	"sirius/internal/eventq.(*Queue).PeekTime": closRef,
	"sirius/internal/eventq.(*Queue).Pop":      closRef,
	"sirius/internal/eventq.(*Queue).RunUntil": closRef,
	"sirius/internal/eventq.(*Queue).less":     closRef,
	"sirius/internal/eventq.(*Queue).swap":     closRef,
	"sirius/internal/eventq.(*Queue).up":       closRef,
	"sirius/internal/eventq.(*Queue).down":     closRef,

	"sirius/internal/schedule.CheckContentionFree":  scheduleRef,
	"sirius/internal/schedule.CheckUniformCoverage": scheduleRef,
	"sirius/internal/schedule.(*Grouped).RxPort":    "read by schedule.CheckContentionFree",
	"sirius/internal/schedule.(*Rotor).RxPort":      "read by schedule.CheckContentionFree",
	"sirius/internal/sched.CheckMatching":           "the matching check every planner's plans are held to in the sched tests and FuzzPlanContentionFree",
	"sirius/internal/optics.NewAWGR":                awgrRef,
	"sirius/internal/optics.(*AWGR).Route":          awgrRef,
	"sirius/internal/schedule.(*Grouped).Wavelength": awgrRef +
		"; the root integration tests check the lasers against these wavelengths",

	"sirius/internal/phy.(*PRBS).NextBit":                "the bitwise reference for PRBS.Fill and PRBS.CountErrors",
	"sirius/internal/wire.ReadFrame":                     "the fresh-buffer reference for ReadFrameInto in FuzzReadFrameInto",
	"sirius/internal/sweep.SweepManifest.Canonical":      "the sweep, cluster and siriussim tests check that a cluster run's manifest matches a serial run's",
	"sirius/internal/telemetry.(*Snapshot).CounterTotal": "the siriussim and wire tests read run counters from snapshots",
	"sirius/internal/metrics.(*Sample).Min":              "the core, fluid and dc golden fixtures record the minimum FCT",

	"sirius.Config.RunParallel":          rootAPI,
	"sirius.AllToAllWorkload":            rootAPI,
	"sirius.BroadcastWorkload":           rootAPI,
	"sirius/internal/workload.AllToAll":  rootAPI + " (AllToAllWorkload)",
	"sirius/internal/workload.Broadcast": rootAPI + " (BroadcastWorkload)",
}

// declName returns the linker symbol of a function declaration in
// package pkg, generic type parameters left out, and for a value method
// also the pointer-receiver wrapper the compiler may link in its place.
func declName(pkg string, fn *ast.FuncDecl) (name, wrapper string) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name, ""
	}
	t := fn.Recv.List[0].Type
	star, ptr := t.(*ast.StarExpr)
	if ptr {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := t.(*ast.Ident).Name
	wrapper = pkg + ".(*" + recv + ")." + fn.Name.Name
	if ptr {
		return wrapper, ""
	}
	return pkg + "." + recv + "." + fn.Name.Name, wrapper
}

// symbolDecl maps a linker symbol to the declaration it was compiled
// from: generic instantiations ("[go.shape.int32]") and method-value
// and range-body suffixes ("-fm", "-range1") are cut, and closures
// (".func1", ".func1.2", ".gowrap1", ".deferwrap1") resolve to the
// function that encloses them.
func symbolDecl(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	if i := strings.IndexByte(s, '-'); i >= 0 {
		s = s[:i]
	}
	for {
		i := strings.LastIndexByte(s, '.')
		if i < 0 || !isClosureSuffix(s[i+1:]) {
			return s
		}
		s = s[:i]
	}
}

// isClosureSuffix reports whether s is a compiler-generated closure name
// component: "func1", "gowrap1", "deferwrap1" or a bare "1".
func isClosureSuffix(s string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap"} {
		if strings.HasPrefix(s, p) {
			s = s[len(p):]
			break
		}
	}
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// linkedDecls builds every binary of the repository with inlining off in
// this module and returns the declarations their text symbols map to.
func linkedDecls(t *testing.T, goTool string) map[string]bool {
	t.Helper()
	out := t.TempDir()
	gcflags := "-gcflags=" + modulePath + "/...=-l"
	builds := [][]string{
		{"build", gcflags, "-o", out + string(filepath.Separator), "./cmd/...", "./examples/..."},
		{"build", "-C", "perfbench", gcflags, "-o", filepath.Join(out, "perfbench"), "."},
	}
	for _, args := range builds {
		if msg, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, msg)
		}
	}
	bins, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	linked := make(map[string]bool)
	for _, bin := range bins {
		nm, err := exec.Command(goTool, "tool", "nm", filepath.Join(out, bin.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(nm))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "<addr> <type> <name>"; a name may hold spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[symbolDecl(f[2])] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return linked
}

// unlinkedDecl is a function declaration no binary links.
type unlinkedDecl struct {
	name, pkg string
	pos       token.Position
}

// unlinkedDecls parses every Go file of the repository, so that any
// source change invalidates a cached result of this test, and returns
// the non-test declarations outside package main that linked lacks.
func unlinkedDecls(t *testing.T, linked map[string]bool) []unlinkedDecl {
	t.Helper()
	fset := token.NewFileSet()
	var found []unlinkedDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if strings.HasSuffix(path, "_test.go") || f.Name.Name == "main" {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(path)); err != nil || !ok {
			return err
		}
		pkg := modulePath
		if dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			name, wrapper := declName(pkg, fn)
			if !linked[name] && !linked[wrapper] {
				found = append(found, unlinkedDecl{name, pkg, fset.Position(fn.Pos())})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// TestEveryFunctionIsLinked fails on each function that no binary links
// and keepUnlinked does not name, and on each keepUnlinked entry that
// names no such function.
func TestEveryFunctionIsLinked(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	used := make(map[string]bool)
	var stray []string
	for _, u := range unlinkedDecls(t, linkedDecls(t, goTool)) {
		switch {
		case keepUnlinked[u.name] != "":
			used[u.name] = true
		case keepUnlinked[u.pkg] != "":
			used[u.pkg] = true
		default:
			stray = append(stray, u.pos.String()+": "+u.name)
		}
	}
	sort.Strings(stray)
	for _, s := range stray {
		t.Errorf("%s is linked into no binary: delete it, or add it to keepUnlinked with the reason it stays", s)
	}
	for key := range keepUnlinked {
		if !used[key] {
			t.Errorf("keepUnlinked entry %q names no unlinked function: remove it", key)
		}
	}
}

// TestSymbolDecl checks that every symbol form the linker emits maps to
// the name declName gives the declaration it was compiled from.
func TestSymbolDecl(t *testing.T) {
	for _, tc := range []struct{ decl, sym string }{
		{"func F() {}", "p.F"},
		{"func (T) M() {}", "p.T.M"},
		{"func (T) M() {}", "p.(*T).M"}, // the compiler's pointer wrapper
		{"func (t *T) M() {}", "p.(*T).M"},
		{"func (q *T[E]) M() {}", "p.(*T[go.shape.int32]).M"},
		{"func (q T[K, V]) M() {}", "p.T[go.shape.string,go.shape.struct { a int; b []uint8 }].M"},
		{"func F[E any]() {}", "p.F[go.shape.[]int]"},
		{"func F() {}", "p.F.func1"},
		{"func F() {}", "p.F.func1.2"},
		{"func F() {}", "p.F.gowrap1"},
		{"func (t *T) M() {}", "p.(*T).M.deferwrap1"},
		{"func (t *T) M() {}", "p.(*T).M-fm"},
		{"func F() {}", "p.F-range1"},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), "", "package p\n"+tc.decl, 0)
		if err != nil {
			t.Fatal(err)
		}
		name, wrapper := declName("p", f.Decls[0].(*ast.FuncDecl))
		if got := symbolDecl(tc.sym); got != name && got != wrapper {
			t.Errorf("%s: symbol %s maps to %s, want %s", tc.decl, tc.sym, got, name)
		}
	}
	for _, sym := range []string{"p.F2", "p.T.M2", "p.(*T).Mfunc1", "p.init.0"} {
		if got := symbolDecl(sym); got == "p.F" || got == "p.T.M" || got == "p.(*T).M" {
			t.Errorf("symbol %s maps to %s", sym, got)
		}
	}
}
