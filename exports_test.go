package hpcvorx

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
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

	{"vdb.Registry.StoppedProcesses", "paper", "TestStoppedProcessesView", vdbCite},
	{"vdb.Debugger.Current", "paper", "TestAttachToRunningProcessAndSwitch", vdbCite},
	{"vdb.Debugger.Hits", "paper", "TestBreakpointStopsAndContinues", vdbCite},

	{"cemu.Circuit.Simulate", "reference", "TestDistributedEquivalenceProperty", ""},

	{"channels.Channel.RetainedWrites", "observe", "TestRetainedWritesReleasedByStableMarks", ""},
	{"channels.Service.FreeShells", "observe", "TestShellListsCappedOnOneWayShardTraffic", ""},
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
	poolCite  = "§3.3 decentralized syscalls; DESIGN.md Extensions (stub.SyscallPool)"
	stubCite  = "§3.3: a blocking UNIX call stalls every process its shared stub serves"
	allocCite = "§3.1 allocation policy; DESIGN.md E9"
	vdbCite   = "§6 symbolic debugger; DESIGN.md Extensions (vdb)"
)

// scanRepo scans this module and perfbench once per test binary; the
// three guards below share the result.
var scanRepo = sync.OnceValues(func() (*exportScan, error) {
	return scanExports(".", "perfbench")
})

func TestExportsHaveProgramCallers(t *testing.T) {
	scan, err := scanRepo()
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range scan.check(exportAllowlist) {
		t.Error(msg)
	}
}

// A struct field declared under internal/ must be read: by program
// code or by a test. A field nothing reads still costs each write and
// each reader of the code. The scan counts a tagged field as read, and
// every field of a struct compared with == or != or used as a map key.
// A map is not read by storing into it, deleting from it or comparing
// it with nil.
func TestFieldsAreRead(t *testing.T) {
	scan, err := scanRepo()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedNames(scan.unread) {
		t.Errorf("%s: field %s is never read; delete it and whatever only it fed, or add the check it was meant for",
			scan.fset.Position(scan.unread[name]), name)
	}
}

// A cost under internal/ is a sim.Duration constant, never a
// package-level variable: nothing may retune the calibration the
// paper's numbers rest on at run time.
func TestCostsAreConstants(t *testing.T) {
	scan, err := scanRepo()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedNames(scan.costVars) {
		t.Errorf("%s: package-level var %s has type sim.Duration; make it a constant",
			scan.fset.Position(scan.costVars[name]), name)
	}
}

// TestExportScanRules runs the scan over one fixture module per rule
// under testdata/exports and compares what it reports uncalled, the
// fields it reports unread and the sim.Duration variables it finds.
func TestExportScanRules(t *testing.T) {
	for _, c := range []struct {
		name   string
		more   []string // further modules, like perfbench
		want   []string
		unread []string
		vars   []string
	}{
		// An exported function nothing calls is reported; a use from
		// inside its own body does not count.
		{"uncalled", nil, []string{"a.Recursive", "a.Unused"}, nil, nil},
		// Uses count from another package, from the declaring package
		// and from a separate module.
		{"uses", []string{"bench"}, nil, nil, nil},
		// Methods that satisfy fmt.Stringer, sort.Interface or an
		// interface of the program are exempt; others are not.
		{"iface", nil, []string{"a.Celsius.Kelvin"}, nil, nil},
		// A generic method called only through an instantiation is
		// called.
		{"generic", nil, []string{"q.Queue.Len"}, nil, nil},
		// A field nothing reads is reported, and so is one that is
		// only assigned, incremented or keyed in a composite literal,
		// and a map only stored into, deleted from or compared with nil.
		{"unread", nil, nil, []string{"a.T.added", "a.T.bumped", "a.T.counted", "a.T.deleted", "a.T.keyed", "a.T.nilTested", "a.T.set", "a.T.stored", "a.T.unused"}, nil},
		// Reads count from another package, from an in-package test and
		// from an external test package, and a map is read by an index
		// on the right, a range or len.
		{"reads", nil, nil, nil, nil},
		// A tagged field is read, and so is every field of a struct
		// used as a map key or compared with !=.
		{"whole", nil, nil, nil, nil},
		// A package-level sim.Duration variable is reported; a
		// sim.Duration constant is not.
		{"costvar", nil, nil, nil, []string{"a.Cost"}},
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
				t.Errorf("uncalled = %q, want %q", got, c.want)
			}
			if got := sortedNames(scan.unread); !reflect.DeepEqual(got, c.unread) {
				t.Errorf("unread = %q, want %q", got, c.unread)
			}
			if got := sortedNames(scan.costVars); !reflect.DeepEqual(got, c.vars) {
				t.Errorf("sim.Duration vars = %q, want %q", got, c.vars)
			}
		})
	}
}

// sortedNames returns m's keys in order, nil for none.
func sortedNames(m map[string]token.Pos) []string {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
// internal/, the ones no non-test code uses, and the test files; every
// struct field declared there and the ones nothing reads; and the
// package-level sim.Duration variables.
type exportScan struct {
	fset     *token.FileSet
	decls    map[*types.Func]*ast.FuncDecl
	declared map[string]*types.Func
	uncalled map[string]bool
	tests    map[string]testFunc // Test and Benchmark functions by name
	helpers  map[string]map[string]*ast.FuncDecl

	fields   map[token.Pos]string // struct field -> pkg.Type.field
	read     map[token.Pos]bool
	unread   map[string]token.Pos
	costVars map[string]token.Pos // pkg.Name of each sim.Duration var
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
// (each with its own go.mod), type-checks their packages from source,
// and records which exported functions and methods of root's internal/
// tree have a use outside their own body. A method also counts as used
// when its receiver type implements an interface with a method of that
// name, declared in a loaded package or one it imports: the call may go
// through the interface. It then type-checks the test files too, each
// package's in-package tests together with it and its external _test
// package on its own, and records which struct fields of root's
// internal/ tree nothing reads, tests included.
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
		fields:   map[token.Pos]string{},
		read:     map[token.Pos]bool{},
		unread:   map[string]token.Pos{},
		costVars: map[string]token.Pos{},
	}
	l := &loader{s: s, dirs: map[string]string{}, pkgs: map[string]*loadedPkg{}, testFiles: map[string][]*ast.File{}}
	var internal string
	for i, dir := range append([]string{root}, more...) {
		mod, err := l.addModule(dir)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			internal = mod + "/internal/"
			l.internal = internal
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
		if strings.HasPrefix(p, internal) {
			s.declareState(strings.TrimPrefix(p, internal), lp, internal+"sim")
		}
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

	for _, p := range paths {
		l.noteReads(l.pkgs[p].info, l.pkgs[p].files)
	}
	tpaths := make([]string, 0, len(l.testFiles))
	for p := range l.testFiles {
		tpaths = append(tpaths, p)
	}
	sort.Strings(tpaths)
	for _, p := range tpaths {
		if err := l.checkTests(p); err != nil {
			return nil, err
		}
	}
	for pos, name := range s.fields {
		if !s.read[pos] {
			s.unread[name] = pos
		}
	}
	return s, nil
}

// declareState records the struct fields that lp's files declare, a
// tagged one as read (encoding/json reads it), and its package-level
// variables of type sim.Duration. pkg is lp's path below internal/.
func (s *exportScan) declareState(pkg string, lp *loadedPkg, simPath string) {
	for _, f := range lp.files {
		for _, d := range f.Decls {
			outer := "" // the declaration an anonymous struct sits in
			switch d := d.(type) {
			case *ast.FuncDecl:
				outer = d.Name.Name
			case *ast.GenDecl:
				if len(d.Specs) > 0 {
					if vs, ok := d.Specs[0].(*ast.ValueSpec); ok {
						outer = vs.Names[0].Name
					}
				}
			}
			names := map[*ast.StructType]string{}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						names[st] = n.Name.Name
					}
				case *ast.StructType:
					name, ok := names[n]
					if !ok {
						name = outer
					}
					st := lp.info.TypeOf(n).(*types.Struct)
					for i := 0; i < st.NumFields(); i++ {
						if v := st.Field(i); v.Name() != "_" {
							s.fields[v.Pos()] = pkg + "." + name + "." + v.Name()
							if st.Tag(i) != "" {
								s.read[v.Pos()] = true
							}
						}
					}
					for _, fld := range n.Fields.List {
						if inner, ok := fld.Type.(*ast.StructType); ok && len(fld.Names) > 0 {
							names[inner] = name + "." + fld.Names[0].Name
						}
					}
				}
				return true
			})
		}
	}
	scope := lp.pkg.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok {
			if t, ok := v.Type().(*types.Named); ok && t.Obj().Name() == "Duration" && t.Obj().Pkg().Path() == simPath {
				s.costVars[pkg+"."+name] = v.Pos()
			}
		}
	}
}

// noteReads marks the fields of the loaded modules that files read. A
// selector reads the field it names, unless it is the whole left side
// of an assignment or an inc/dec, and every embedded field it passes
// through; a key of a composite literal reads nothing. A map-typed
// selector reads nothing either where it is indexed on the left side
// of an assignment (op-assignments included) or an inc/dec, is
// delete's first argument, or is compared with nil. Comparing struct
// values with == or != (a switch included), or keying a map with
// them, reads every field.
func (l *loader) noteReads(info *types.Info, files []*ast.File) {
	isMap := func(x ast.Expr) bool {
		_, ok := info.TypeOf(x).Underlying().(*types.Map)
		return ok
	}
	for _, f := range files {
		written := map[ast.Expr]bool{}
		write := func(x ast.Expr) {
			x = ast.Unparen(x)
			written[x] = true
			if ix, ok := x.(*ast.IndexExpr); ok && isMap(ix.X) {
				written[ast.Unparen(ix.X)] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
					if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
						written[ast.Unparen(n.Args[0])] = true
					}
				}
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				if sel == nil {
					return true
				}
				path := sel.Index()
				if sel.Kind() != types.FieldVal {
					path = path[:len(path)-1]
				}
				t := sel.Recv()
				for i, x := range path {
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					if v := st.Field(x); i < len(path)-1 || !written[n] {
						l.markRead(v)
					}
					t = st.Field(x).Type()
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					l.readWhole(info.TypeOf(n.X))
					if isMap(n.X) && info.Types[n.Y].IsNil() {
						written[ast.Unparen(n.X)] = true
					}
					if isMap(n.Y) && info.Types[n.X].IsNil() {
						written[ast.Unparen(n.Y)] = true
					}
				}
			case *ast.SwitchStmt:
				if n.Tag != nil {
					l.readWhole(info.TypeOf(n.Tag))
				}
			}
			return true
		})
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			l.readWhole(m.Key())
		}
	}
}

// markRead marks v read if a loaded package declares it. A test
// package's copy of a field has the position of the program's.
func (l *loader) markRead(v *types.Var) {
	v = v.Origin()
	if v.Pkg() != nil && l.dirs[v.Pkg().Path()] != "" {
		l.s.read[v.Pos()] = true
	}
}

// readWhole marks every field of a struct value of type t read,
// through nested structs and arrays.
func (l *loader) readWhole(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			l.markRead(u.Field(i))
			l.readWhole(u.Field(i).Type())
		}
	case *types.Array:
		l.readWhole(u.Elem())
	}
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
	s         *exportScan
	internal  string            // the first module's path + "/internal/"
	dirs      map[string]string // import path -> directory
	pkgs      map[string]*loadedPkg
	testFiles map[string][]*ast.File // import path -> the _test.go files the build takes
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
		rel, _ := filepath.Rel(dir, path)
		imp := mod
		if rel != "." {
			imp = mod + "/" + filepath.ToSlash(rel)
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				l.dirs[imp] = path
			} else if err := l.addTestFile(imp, path, f); err != nil {
				return err
			}
		}
		return nil
	})
	return mod, err
}

// addTestFile records the Test and Benchmark functions of one test
// file, and its other functions as helpers of its directory; it keeps
// the file for type-checking if the build takes it.
func (l *loader) addTestFile(imp, dir, file string) error {
	af, err := parser.ParseFile(l.s.fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	if ok, err := build.Default.MatchFile(dir, filepath.Base(file)); err != nil {
		return err
	} else if ok {
		l.testFiles[imp] = append(l.testFiles[imp], af)
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
	lp := &loadedPkg{}
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
	var err error
	if lp.pkg, lp.info, err = l.check(path, lp.files); err != nil {
		return nil, err
	}
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

func (l *loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.s.fset, files, info)
	return pkg, info, err
}

// checkTests type-checks the test files of the package at path, the
// in-package ones together with its non-test files and the external
// _test package on its own, and notes the fields they read. A test
// package that imports no loaded package can read only its own
// package's fields, so it is skipped unless that package is under
// internal/: the root package's guard tests import go/types, whose
// source alone takes longer to check than every other test.
func (l *loader) checkTests(path string) error {
	var in, ext []*ast.File
	for _, f := range l.testFiles[path] {
		if strings.HasSuffix(f.Name.Name, "_test") {
			ext = append(ext, f)
		} else {
			in = append(in, f)
		}
	}
	noteReads := func(path string, files, tests []*ast.File, own bool) error {
		if !own && !l.importsLoaded(tests) {
			return nil
		}
		_, info, err := l.check(path, files)
		if err == nil {
			l.noteReads(info, tests)
		}
		return err
	}
	if len(in) > 0 {
		pkg := in
		if lp := l.pkgs[path]; lp != nil {
			pkg = append(append([]*ast.File(nil), lp.files...), in...)
		}
		if err := noteReads(path, pkg, in, strings.HasPrefix(path, l.internal)); err != nil {
			return err
		}
	}
	return noteReads(path+"_test", ext, ext, false)
}

// importsLoaded reports whether a file imports a package of the loaded
// modules.
func (l *loader) importsLoaded(files []*ast.File) bool {
	for _, f := range files {
		for _, imp := range f.Imports {
			if l.dirs[strings.Trim(imp.Path.Value, `"`)] != "" {
				return true
			}
		}
	}
	return false
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
