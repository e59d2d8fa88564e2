package hpcvorx

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// An exported function or method in internal/ stays only if a program
// calls it: non-test code of this module or of the perfbench module.
// exportAllowlist admits the exceptions, each with one of three reasons
// and the test that uses it:
//
//   - paper: the test reproduces a paper claim with it, or DESIGN.md
//     lists it in the per-experiment index or under "Extensions beyond
//     the evaluation"; cite says which;
//   - reference: it is the implementation the test compares the
//     program against;
//   - observe: it only reads state, and the test, which sits outside
//     the declaring package, asserts program behaviour through it.
//
// To add an entry, name the function as the failure message does
// (pkg.Func or pkg.Type.Method, pkg relative to internal/), give the
// reason and a test whose body, or a helper it calls in its own test
// files, names the function.
type exportEntry struct {
	name, reason, test, cite string
}

var exportAllowlist = []exportEntry{
	// §4's checksummed stop-and-wait over the S/NET, and the fault
	// hooks only its tests drive (ROADMAP item 4 decides its future).
	{"flowctl.NewReliable", "paper", "TestReliableDeliversDespiteCorruption", reliableCite},
	{"flowctl.Reliable.SetDeliver", "paper", "TestReliableDeliversDespiteCorruption", reliableCite},
	{"flowctl.Reliable.Fence", "paper", "TestFenceStarvesStaleSender", reliableCite},
	{"flowctl.Reliable.Incarnation", "paper", "TestFenceStarvesStaleSender", reliableCite},
	{"flowctl.Reliable.BumpIncarnation", "paper", "TestRebootClearsFence", reliableCite},
	{"snet.Network.SetCorruptEvery", "paper", "TestReliableDeliversDespiteCorruption", reliableCite},
	{"fault.Engine.SNETModel", "paper", "TestDifferentSeedsDiverge", reliableCite},

	{"stub.NewSyscallPool", "paper", "TestMoreHostsShortenSyscallMakespan", poolCite},
	{"stub.SyscallPool.NewClient", "paper", "TestMoreHostsShortenSyscallMakespan", poolCite},
	{"stub.Client.Syscall", "paper", "TestMoreHostsShortenSyscallMakespan", poolCite},
	{"stub.Proc.Syscall", "paper", "TestSharedStubBlockingSyscallStallsEveryone", stubCite},
	{"stub.Proc.Node", "paper", "TestSharedStubBlockingSyscallStallsEveryone", stubCite},

	{"udo.Object.SendGather", "paper", "TestGatherCheaperThanCoalesce", "§4.1 scatter/gather; DESIGN.md Extensions (udo)"},
	{"udo.Object.SendCoalesced", "paper", "TestGatherCheaperThanCoalesce", "§4.1 scatter/gather; DESIGN.md Extensions (udo)"},
	{"linda.Handle.Rd", "paper", "TestRdDoesNotWithdraw", "§4.1 channel-bypass user; DESIGN.md Extensions (linda)"},

	{"resmgr.Meglos.FreeProcessors", "paper", "TestMeglosSharingWithoutExclusive", allocCite},
	{"resmgr.VORX.FreeProcessors", "paper", "TestVORXAllocationSurvivesRecompile", allocCite},
	{"resmgr.VORX.Free", "paper", "TestVORXCannotFreeOthersProcessors", allocCite},
	{"resmgr.VORX.Use", "paper", "TestVORXIdleReport", allocCite},
	{"resmgr.VORX.AutoReclaim", "paper", "TestAutoReclaimIsObjectionable",
		"§3.1's rejected automatic reclaim; DESIGN.md Extensions (resmgr.AutoReclaim)"},

	{"vdb.Reset", "paper", "TestErrors", vdbCite},
	{"vdb.StoppedProcesses", "paper", "TestStoppedProcessesView", vdbCite},
	{"vdb.Debugger.Current", "paper", "TestAttachToRunningProcessAndSwitch", vdbCite},
	{"vdb.Debugger.Hits", "paper", "TestBreakpointStopsAndContinues", vdbCite},

	{"cemu.Circuit.Simulate", "reference", "TestDistributedEquivalenceProperty", ""},

	{"channels.Channel.RetainedWrites", "observe", "TestRetainedWritesReleasedByStableMarks", ""},
	{"channels.Service.SideBuffersFree", "observe", "TestSideBufferConservationProperty", ""},
	{"dfs.Service.StoredOn", "observe", "TestReplicationWritesAllCopies", ""},
	{"fault.Engine.Records", "observe", "TestCrashForceFreesProcessors", ""},
	{"linda.Space.Stored", "observe", "TestRdDoesNotWithdraw", ""},
	{"obs.Sampler.Dropped", "observe", "TestSamplerRingLimit", ""},
	{"obs.Sampler.Samples", "observe", "TestSamplerBoundaries", ""},
	{"oscope.Scope.Intervals", "observe", "TestAttachSeesPastTheRing", ""},
	{"oscope.Scope.Nodes", "observe", "TestAttachSeesPastTheRing", ""},
	{"rapport.Conference.Members", "observe", "TestLeaverStopsAffectingMix", ""},
	{"snet.Network.Stats", "observe", "TestReservationEliminatesOverflow", ""},
	{"super.Supervisor.MemberState", "observe", "TestHeartbeatDetectionTimeline", ""},
	{"udo.Object.Pending", "observe", "TestPolledBackpressureThrottlesSender", ""},
	{"udo.WindowSender.Credits", "observe", "TestWindowNeverExceedsCredits", ""},
}

const (
	reliableCite = "§4 checksummed stop-and-wait; DESIGN.md Extensions (flowctl.Reliable)"
	poolCite     = "§3.3 decentralized syscalls; DESIGN.md Extensions (stub.SyscallPool)"
	stubCite     = "§3.3: a blocking UNIX call stalls every process its shared stub serves"
	allocCite    = "§3.1 allocation policy; DESIGN.md E9"
	vdbCite      = "§6 symbolic debugger; DESIGN.md Extensions (vdb)"
)

func TestExportsHaveProgramCallers(t *testing.T) {
	scan, err := scanExports(".", "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range scan.check(exportAllowlist) {
		t.Error(msg)
	}
}

// TestExportScanRules runs the scan over one fixture module per rule
// under testdata/exports and compares what it reports uncalled.
func TestExportScanRules(t *testing.T) {
	for _, c := range []struct {
		name string
		more []string // further modules, like perfbench
		want []string
	}{
		// An exported function nothing calls is reported; a use from
		// inside its own body does not count.
		{"uncalled", nil, []string{"a.Recursive", "a.Unused"}},
		// Uses count from another package, from the declaring package
		// and from a separate module.
		{"uses", []string{"bench"}, nil},
		// Methods that satisfy fmt.Stringer, sort.Interface or an
		// interface of the program are exempt; others are not.
		{"iface", nil, []string{"a.Celsius.Kelvin"}},
		// A generic method called only through an instantiation is
		// called.
		{"generic", nil, []string{"q.Queue.Len"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "exports", c.name)
			var more []string
			for _, m := range c.more {
				more = append(more, filepath.Join(dir, m))
			}
			scan, err := scanExports(dir, more...)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for name := range scan.uncalled {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("uncalled = %q, want %q", got, c.want)
			}
		})
	}
}

// TestExportAllowlistRules: an entry fails when its name is gone or has
// a program caller, when it gives no valid reason and test, and when
// an observe entry's test could read the state itself or the function
// writes state.
func TestExportAllowlistRules(t *testing.T) {
	scan, err := scanExports(filepath.Join("testdata", "exports", "stale"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		entry exportEntry
		want  string // substring of the one message; "" for none
	}{
		{exportEntry{"a.Kept", "paper", "TestKept", "§1"}, ""},
		{exportEntry{"a.Counter.Read", "observe", "TestReadOutside", ""}, ""},
		{exportEntry{"a.Gone", "paper", "TestKept", "§1"}, "no such exported function"},
		{exportEntry{"a.Called", "paper", "TestKept", "§1"}, "a program calls it now"},
		{exportEntry{"a.Kept", "paper", "TestKept", ""}, "must cite"},
		{exportEntry{"a.Kept", "liked", "TestKept", ""}, "not paper, reference or observe"},
		{exportEntry{"a.Kept", "reference", "TestMissing", ""}, "test TestMissing not found"},
		{exportEntry{"a.Kept", "reference", "TestReadOutside", ""}, "does not use Kept"},
		{exportEntry{"a.Counter.Read", "observe", "TestReadInside", ""}, "can read the state itself"},
		{exportEntry{"a.Counter.Bump", "observe", "TestBumpOutside", ""}, "writes c.n"},
	} {
		allow := []exportEntry{c.entry}
		for name := range scan.uncalled {
			if name != c.entry.name {
				allow = append(allow, exportEntry{name, "reference", "TestAll", ""})
			}
		}
		msgs := scan.check(allow)
		switch {
		case c.want == "" && len(msgs) != 0:
			t.Errorf("%+v: %q, want no message", c.entry, msgs)
		case c.want != "" && (len(msgs) != 1 || !strings.Contains(msgs[0], c.want)):
			t.Errorf("%+v: %q, want one message containing %q", c.entry, msgs, c.want)
		}
	}
}

// exportScan is the result of type-checking a module tree: every
// exported function and method declared under the first module's
// internal/, the ones no non-test code uses, and the test files.
type exportScan struct {
	fset     *token.FileSet
	decls    map[*types.Func]*ast.FuncDecl
	declared map[string]*types.Func
	uncalled map[string]bool
	tests    map[string]testFunc // Test and Benchmark functions by name
	helpers  map[string]map[string]*ast.FuncDecl
}

// testFunc is one test function and where it lives.
type testFunc struct {
	dir, pkg string
	decl     *ast.FuncDecl
}

// stdImporter type-checks the standard library from source, once per
// test binary: every scan shares it.
var stdImporter types.ImporterFrom

// scanExports loads the module at root and every further module dir
// (each with its own go.mod), type-checks their non-test packages from
// source, and records which exported functions and methods of root's
// internal/ tree have a use outside their own body. A method also
// counts as used when its receiver type implements an interface with a
// method of that name, declared in a loaded package or one it imports:
// the call may go through the interface.
func scanExports(root string, more ...string) (*exportScan, error) {
	if stdImporter == nil {
		stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	}
	s := &exportScan{
		fset:     token.NewFileSet(),
		decls:    map[*types.Func]*ast.FuncDecl{},
		declared: map[string]*types.Func{},
		uncalled: map[string]bool{},
		tests:    map[string]testFunc{},
		helpers:  map[string]map[string]*ast.FuncDecl{},
	}
	l := &loader{s: s, dirs: map[string]string{}, pkgs: map[string]*loadedPkg{}}
	var internal string
	for i, dir := range append([]string{root}, more...) {
		mod, err := l.addModule(dir)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			internal = mod + "/internal/"
		}
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}

	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	for _, p := range paths {
		lp := l.pkgs[p]
		for _, f := range lp.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() && strings.HasPrefix(p, internal) {
					fn := lp.info.Defs[fd.Name].(*types.Func)
					s.declared[exportName(strings.TrimPrefix(p, internal), fn)] = fn
				}
			}
		}
		for id, obj := range lp.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := s.decls[fn]; fd != nil && id.Pos() >= fd.Pos() && id.Pos() < fd.End() {
				continue
			}
			used[fn] = true
		}
		for _, tv := range lp.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, l.namedInterfaces()...)
	for name, fn := range s.declared {
		if !used[fn] && !implementsWith(fn, ifaces) {
			s.uncalled[name] = true
		}
	}
	return s, nil
}

// exportName is pkg.Func for a function and pkg.Type.Method for a
// method, pkg being the import path below internal/.
func exportName(pkg string, fn *types.Func) string {
	if t := recvNamed(fn); t != nil {
		return pkg + "." + t.Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// recvNamed is the named type of fn's receiver, nil for a function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// implementsWith reports whether fn is a method whose receiver's named
// type, or a pointer to it, implements an interface that has a method
// named like fn.
func implementsWith(fn *types.Func, ifaces []*types.Interface) bool {
	t := recvNamed(fn)
	if t == nil {
		return false
	}
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); obj == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// check compares the scan with an allowlist and returns one message per
// problem: an uncalled name the list lacks, an entry whose name is gone
// or now has a program caller, and an entry without a valid reason and
// test.
func (s *exportScan) check(allow []exportEntry) []string {
	var msgs []string
	listed := map[string]bool{}
	for _, e := range allow {
		listed[e.name] = true
		fn, declared := s.declared[e.name]
		msg := ""
		switch {
		case !declared:
			msg = "no such exported function or method; delete the entry"
		case !s.uncalled[e.name]:
			msg = "a program calls it now; delete the entry"
		default:
			msg = s.checkEntry(e, fn)
		}
		if msg != "" {
			msgs = append(msgs, fmt.Sprintf("allowlist entry %s: %s", e.name, msg))
		}
	}
	var names []string
	for name := range s.uncalled {
		if !listed[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		msgs = append(msgs, fmt.Sprintf("%s: exported %s has no caller outside tests; delete it, or allowlist it with a reason",
			s.fset.Position(s.declared[name].Pos()), name))
	}
	return msgs
}

func (s *exportScan) checkEntry(e exportEntry, fn *types.Func) string {
	switch e.reason {
	case "paper":
		if e.cite == "" {
			return "a paper entry must cite its paper section or DESIGN.md entry"
		}
	case "reference", "observe":
	default:
		return fmt.Sprintf("reason %q is not paper, reference or observe", e.reason)
	}
	tf, ok := s.tests[e.test]
	if !ok {
		return fmt.Sprintf("test %s not found", e.test)
	}
	if !s.mentions(tf, fn.Name()) {
		return fmt.Sprintf("test %s does not use %s", e.test, fn.Name())
	}
	if e.reason == "observe" {
		if tf.dir == filepath.Dir(s.fset.Position(fn.Pos()).Filename) && !strings.HasSuffix(tf.pkg, "_test") {
			return fmt.Sprintf("test %s is in %s's package and can read the state itself", e.test, fn.Name())
		}
		if w := s.writes(fn); w != "" {
			return "an observe entry must only read state, but it writes " + w
		}
	}
	return ""
}

// mentions reports whether the test's body names name, directly or in
// a helper function it calls from its own package's test files.
func (s *exportScan) mentions(tf testFunc, name string) bool {
	names := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
		return found
	}
	if names(tf.decl.Body) {
		return true
	}
	found := false
	ast.Inspect(tf.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if h := s.helpers[tf.dir][id.Name]; h != nil && names(h.Body) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// writes returns the first assignment in fn's body to anything but a
// local variable, or "" if there is none.
func (s *exportScan) writes(fn *types.Func) string {
	var w string
	check := func(lhs ast.Expr) {
		if _, ok := lhs.(*ast.Ident); !ok && w == "" {
			w = fmt.Sprintf("%s at %s", types.ExprString(lhs), s.fset.Position(lhs.Pos()))
		}
	}
	ast.Inspect(s.decls[fn].Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		}
		return w == ""
	})
	return w
}

// loader type-checks a module tree's packages from source, in import
// order, each once.
type loader struct {
	s    *exportScan
	dirs map[string]string // import path -> directory
	pkgs map[string]*loadedPkg
}

type loadedPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// addModule maps every package directory of the module rooted at dir to
// its import path, and records the functions its _test.go files
// declare. Nested modules and testdata are skipped.
func (l *loader) addModule(dir string) (string, error) {
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	var mod string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			mod = f[1]
		}
	}
	if mod == "" {
		return "", fmt.Errorf("%s: no module line", filepath.Join(dir, "go.mod"))
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != dir {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		hasCode := false
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				hasCode = true
			} else if err := l.addTestFile(path, f); err != nil {
				return err
			}
		}
		if hasCode {
			rel, _ := filepath.Rel(dir, path)
			imp := mod
			if rel != "." {
				imp = mod + "/" + filepath.ToSlash(rel)
			}
			l.dirs[imp] = path
		}
		return nil
	})
	return mod, err
}

// addTestFile records the Test and Benchmark functions of one test
// file, and its other functions as helpers of its directory.
func (l *loader) addTestFile(dir, file string) error {
	af, err := parser.ParseFile(l.s.fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, decl := range af.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || fd.Body == nil {
			continue
		}
		if name := fd.Name.Name; strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark") {
			l.s.tests[name] = testFunc{dir: dir, pkg: af.Name.Name, decl: fd}
			continue
		}
		if l.s.helpers[dir] == nil {
			l.s.helpers[dir] = map[string]*ast.FuncDecl{}
		}
		l.s.helpers[dir][fd.Name.Name] = fd
	}
	return nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return stdImporter.ImportFrom(path, dir, mode)
	}
	lp, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return lp.pkg, nil
}

// load parses and type-checks the non-test files of one package.
func (l *loader) load(path string) (*loadedPkg, error) {
	if lp, ok := l.pkgs[path]; ok {
		if lp == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return lp, nil
	}
	l.pkgs[path] = nil
	lp := &loadedPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	files, _ := filepath.Glob(filepath.Join(l.dirs[path], "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(l.s.fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, af)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.s.fset, lp.files, lp.info)
	if err != nil {
		return nil, err
	}
	lp.pkg = pkg
	for _, f := range lp.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				l.s.decls[lp.info.Defs[fd.Name].(*types.Func)] = fd
			}
		}
	}
	l.pkgs[path] = lp
	return lp, nil
}

// namedInterfaces returns error and every interface with methods
// declared at package level in a loaded package or any package it
// imports, standard library included.
func (l *loader) namedInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, lp := range l.pkgs {
		walk(lp.pkg)
	}
	return out
}
