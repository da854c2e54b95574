// Package archcheck holds the design rules a type checker can see as
// tier-1 tests. It has no non-test file: the tests load the module once
// (go list for the build, export data for the standard library, go/types
// over every module package's non-test files) and check these rules:
//
//   - import-graph: each package's module imports are exactly the ones
//     importTable lists, and the table stays inside layerLimits;
//   - pipes-only: no package under examples/ or cmd/ imports one under
//     internal/, except the exempt cmd/mdbench;
//   - restricted imports: a standard-library package in
//     restrictedImports is imported only by the packages its row names
//     (one-crc-importer: only internal/frame imports hash/crc32;
//     testing-importers: only the two test helpers import testing);
//   - every-function-has-a-caller: every non-test function and method is
//     referenced from non-test code, is main or init, is required by an
//     interface its type implements, or is on the allowlist;
//   - exported-ceiling: the exported package-level identifiers in
//     internal/* that no other package's non-test code uses number
//     exactly exportedCeiling; a count over it lists them.
//
// Every failure message starts with the name of the rule that broke.
package archcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// importTable is every module package's module imports (non-test files)
// as they stand. Adding an import edge means adding it here.
var importTable = map[string][]string{
	"benchmark":            {"internal/clock", "internal/core", "internal/persist", "internal/ring", "internal/watch"},
	"cmd/mdbench":          {"internal/bench"},
	"cmd/mdserve":          {"pipes"},
	"cmd/mdtop":            {"pipes"},
	"examples/adaptive":    {"pipes"},
	"examples/costmonitor": {"pipes"},
	"examples/degraded":    {"pipes"},
	"examples/migration":   {"pipes"},
	"examples/quickstart":  {"pipes"},
	"examples/replay":      {"pipes"},
	"examples/scheduling":  {"pipes"},
	"examples/watch":       {"pipes"},
	"internal/adapt":       {"internal/clock", "internal/core", "internal/costmodel"},
	"internal/bench":       {"internal/clock", "internal/core", "internal/costmodel", "internal/engine", "internal/graph", "internal/ops", "internal/optimizer", "internal/resource", "internal/sched", "internal/stream"},
	"internal/clock":       {},
	"internal/core":        {"internal/clock", "internal/ring"},
	"internal/costmodel":   {"internal/clock", "internal/core", "internal/graph", "internal/ops"},
	"internal/engine":      {"internal/clock", "internal/graph", "internal/ops", "internal/ring", "internal/sched", "internal/stream"},
	"internal/frame":       {},
	"internal/graph":       {"internal/core", "internal/stream"},
	"internal/leakcheck":   {},
	"internal/monitor":     {"internal/clock", "internal/core", "internal/graph"},
	"internal/ops":         {"internal/clock", "internal/core", "internal/graph", "internal/stream"},
	"internal/optimizer":   {"internal/core", "internal/ops", "internal/stream"},
	"internal/persist":     {"internal/clock", "internal/core", "internal/frame"},
	"internal/resource":    {"internal/clock", "internal/core", "internal/costmodel", "internal/ops"},
	"internal/ring":        {},
	"internal/sched":       {"internal/clock", "internal/core", "internal/graph", "internal/ops"},
	"internal/smoketest":   {},
	"internal/stream":      {"internal/clock"},
	"internal/watch":       {"internal/core", "internal/frame"},
	"pipes":                {"internal/adapt", "internal/clock", "internal/core", "internal/costmodel", "internal/engine", "internal/graph", "internal/monitor", "internal/ops", "internal/persist", "internal/resource", "internal/sched", "internal/stream", "internal/watch"},
}

// layerLimits bounds what importTable may say for the layers the design
// fixes (DESIGN §5): a package listed here imports from the module only
// what its entry allows. The framing, clock and ring layers and the two
// test helpers import nothing of the module; core sits on clock and ring
// alone; benchmark/ measures through the four layers it reports on.
var layerLimits = map[string][]string{
	"internal/clock":     {},
	"internal/frame":     {},
	"internal/ring":      {},
	"internal/leakcheck": {},
	"internal/smoketest": {},
	"internal/core":      {"internal/clock", "internal/ring"},
	"internal/watch":     {"internal/core", "internal/frame"},
	"internal/persist":   {"internal/clock", "internal/core", "internal/frame"},
	"benchmark":          {"internal/clock", "internal/core", "internal/persist", "internal/ring", "internal/watch"},
}

// outerLayers are the module trees nothing under internal/ may import.
var outerLayers = []string{"pipes", "cmd", "examples", "benchmark"}

// pipesOnly are the module trees that reach the system through pipes
// alone, and pipesOnlyExempt the one package among them that may import
// internal/: cmd/mdbench prints internal/bench's experiment index.
var (
	pipesOnly       = []string{"examples", "cmd"}
	pipesOnlyExempt = []string{"cmd/mdbench"}
)

// restrictedImports lists the standard-library packages that only a few
// module packages may import in non-test files, each under its own rule.
var restrictedImports = []struct {
	path, rule string
	owners     []string
	why        string
}{
	{"hash/crc32", "one-crc-importer", []string{"internal/frame"}, "frame every checksummed byte stream with it"},
	{"testing", "testing-importers", []string{"internal/leakcheck", "internal/smoketest"}, "a test harness lives in _test.go files"},
}

// exportedCeiling is the number of exported package-level identifiers in
// internal/* that no other package's non-test code uses. It only falls:
// a change that unexports or deletes one lowers it.
const exportedCeiling = 21

// rules is what a check run compares a module against: the real module
// uses the tables above, the negative cases a fixture's own.
type rules struct {
	imports   map[string][]string
	limits    map[string][]string
	allowlist map[string]string
	maxAllow  int
	ceiling   int
}

var moduleRules = rules{
	imports:   importTable,
	limits:    layerLimits,
	allowlist: allowlist,
	maxAllow:  maxAllowlisted,
	ceiling:   exportedCeiling,
}

// pkg is one module package, type-checked from its non-test files.
type pkg struct {
	rel     string   // import path relative to the module: "internal/core"
	imports []string // every import of its non-test files, stdlib included
	files   []*ast.File
	types   *types.Package
	info    *types.Info
}

type module struct {
	path string // module path: "repro"
	fset *token.FileSet
	pkgs []*pkg // dependencies before dependents
	// err is why the module did not type-check, such as an import cycle
	// or a type error. The import rules still run on what go list read.
	err error
}

// listed is the part of go list -json's output the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// load type-checks every package of the module rooted at dir. The
// standard library comes from the export data go list -export builds, so
// only the module's own files are parsed. A module that go list or the
// type checker rejects comes back with err set and its import lists.
func load(dir string) (*module, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	m := &module{fset: token.NewFileSet()}
	exports := map[string]string{}
	var own []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil && m.err == nil {
			m.err = fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Module != nil && p.Module.Main {
			m.path = p.Module.Path
			if len(p.GoFiles) > 0 {
				own = append(own, p)
			}
			continue
		}
		exports[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	for _, lp := range own {
		rel, _ := m.rel(lp.ImportPath)
		m.pkgs = append(m.pkgs, &pkg{rel: rel, imports: lp.Imports})
	}
	if m.err != nil {
		return m, nil
	}
	for i, lp := range own {
		p := m.pkgs[i]
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		if p.types, err = conf.Check(lp.ImportPath, m.fset, p.files, p.info); err != nil {
			m.err = fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
			return m, nil
		}
		checked[lp.ImportPath] = p.types
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// rel strips the module path from an import path; ok is false for a
// path outside the module.
func (m *module) rel(path string) (string, bool) {
	if path == m.path {
		return ".", true
	}
	return strings.CutPrefix(path, m.path+"/")
}

// check runs every rule and returns one message per violation.
func check(m *module, r rules) []string {
	var out []string
	out = append(out, checkImportGraph(m, r)...)
	out = append(out, checkPipesOnly(m)...)
	out = append(out, checkRestrictedImports(m)...)
	out = append(out, checkCallers(m, r)...)
	out = append(out, checkExportedCeiling(m, r)...)
	return out
}

// typed returns m's error, named after the rule that needs types.
func typed(rule string, m *module) []string {
	if m.err == nil {
		return nil
	}
	return []string{fmt.Sprintf("%s: the module does not type-check: %v", rule, m.err)}
}

func checkImportGraph(m *module, r rules) []string {
	const rule = "import-graph"
	var out []string
	seen := map[string]bool{}
	for _, p := range m.pkgs {
		seen[p.rel] = true
		var got []string
		for _, imp := range p.imports {
			if rel, ok := m.rel(imp); ok {
				got = append(got, rel)
			}
		}
		want, listedPkg := r.imports[p.rel]
		if !listedPkg {
			out = append(out, fmt.Sprintf("%s: package %s is not in the import table; add it with its module imports %v", rule, p.rel, got))
		}
		for _, imp := range got {
			if listedPkg && !slices.Contains(want, imp) {
				out = append(out, fmt.Sprintf("%s: %s imports %s, which the import table does not list", rule, p.rel, imp))
			}
			if strings.HasPrefix(p.rel, "internal/") && underAny(imp, outerLayers) {
				out = append(out, fmt.Sprintf("%s: %s imports %s; nothing under internal/ may import %v", rule, p.rel, imp, outerLayers))
			}
			if lim, ok := r.limits[p.rel]; ok && !slices.Contains(lim, imp) {
				out = append(out, fmt.Sprintf("%s: %s imports %s; its layer may import only %v", rule, p.rel, imp, lim))
			}
		}
		for _, imp := range want {
			if !slices.Contains(got, imp) {
				out = append(out, fmt.Sprintf("%s: the import table lists %s -> %s, which no longer exists; remove it", rule, p.rel, imp))
			}
		}
	}
	for rel := range r.imports {
		if !seen[rel] {
			out = append(out, fmt.Sprintf("%s: the import table lists package %s, which does not exist; remove it", rule, rel))
		}
	}
	return out
}

func checkPipesOnly(m *module) []string {
	const rule = "pipes-only"
	var out []string
	for _, p := range m.pkgs {
		if !underAny(p.rel, pipesOnly) || slices.Contains(pipesOnlyExempt, p.rel) {
			continue
		}
		for _, imp := range p.imports {
			if rel, ok := m.rel(imp); ok && strings.HasPrefix(rel, "internal/") {
				out = append(out, fmt.Sprintf("%s: %s imports %s; examples and binaries other than %v reach the system through pipes", rule, p.rel, rel, pipesOnlyExempt))
			}
		}
	}
	return out
}

func checkRestrictedImports(m *module) []string {
	var out []string
	for _, r := range restrictedImports {
		for _, p := range m.pkgs {
			if !slices.Contains(r.owners, p.rel) && slices.Contains(p.imports, r.path) {
				out = append(out, fmt.Sprintf("%s: %s imports %s; only %s may (%s)", r.rule, p.rel, r.path, strings.Join(r.owners, " and "), r.why))
			}
		}
	}
	return out
}

// funcKey names a function or method the way the allowlist does:
// "internal/watch.Relay.ItemVersion", "pipes.NewSystem".
func (m *module) funcKey(f *types.Func) string {
	key, _ := m.rel(f.Pkg().Path())
	key += "."
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + f.Name()
}

// uncalled returns the key of every non-test function and method that
// no non-test code references, except main, init and methods an
// interface requires.
func uncalled(m *module) []string {
	type decl struct {
		pos, end token.Pos
	}
	decls := map[*types.Func]decl{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main")) {
					continue
				}
				decls[p.info.Defs[fd.Name].(*types.Func)] = decl{fd.Pos(), fd.End()}
			}
		}
	}
	used := map[*types.Func]bool{}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			f, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			f = f.Origin()
			if d, ok := decls[f]; ok && d.pos <= id.Pos() && id.Pos() < d.end {
				continue // a function's reference to itself is not a caller
			}
			used[f] = true
		}
	}
	required := interfaceMethods(m)
	var out []string
	for f := range decls {
		if used[f] || isRequired(f, required) {
			continue
		}
		out = append(out, m.funcKey(f))
	}
	sort.Strings(out)
	return out
}

// interfaceMethods indexes by method name every interface with methods
// that the module declares or spells out, and every exported interface
// of the packages it imports, directly or not.
func interfaceMethods(m *module) map[string][]*types.Interface {
	idx := map[string][]*types.Interface{}
	seenIface := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			idx[name] = append(idx[name], it)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	// errors.Is, As and Unwrap assert these inline; no named interface
	// carries them.
	method := func(name string, param, result types.Type) *types.Interface {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewVar(token.NoPos, nil, "", param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	boolType := types.Typ[types.Bool]
	add(method("Unwrap", nil, errType))
	add(method("Unwrap", nil, types.NewSlice(errType)))
	add(method("Is", errType, boolType))
	add(method("As", types.Universe.Lookup("any").Type(), boolType))
	seenPkg := map[*types.Package]bool{}
	var walk func(*types.Package, bool)
	walk = func(tp *types.Package, own bool) {
		if seenPkg[tp] {
			return
		}
		seenPkg[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && (own || tn.Exported()) {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp, false)
		}
	}
	for _, p := range m.pkgs {
		walk(p.types, true)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return idx
}

// isRequired reports whether f is a method that an interface its
// receiver type (or a pointer to it) implements requires.
func isRequired(f *types.Func, idx map[string][]*types.Interface) bool {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return false // Implements is unspecified for an uninstantiated type
	}
	for _, it := range idx[f.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

func checkCallers(m *module, r rules) []string {
	const rule = "every-function-has-a-caller"
	if m.err != nil {
		return typed(rule, m)
	}
	var out []string
	reported := map[string]bool{}
	for _, key := range uncalled(m) {
		reported[key] = true
		if _, ok := r.allowlist[key]; !ok {
			out = append(out, fmt.Sprintf("%s: %s has no non-test caller; delete it, move it into a _test.go file, or allowlist it with a reason", rule, key))
		}
	}
	keys := make([]string, 0, len(r.allowlist))
	for key := range r.allowlist {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		switch {
		case !reported[key]:
			out = append(out, fmt.Sprintf("%s: allowlist entry %s is stale: it is called, exempt or gone; remove it", rule, key))
		case strings.TrimSpace(r.allowlist[key]) == "":
			out = append(out, fmt.Sprintf("%s: allowlist entry %s gives no reason", rule, key))
		}
	}
	if len(r.allowlist) > r.maxAllow {
		out = append(out, fmt.Sprintf("%s: the allowlist has %d entries; its cap is %d", rule, len(r.allowlist), r.maxAllow))
	}
	return out
}

// unusedExported returns, sorted, every exported package-level
// identifier in internal/* that no other package's non-test code uses.
func unusedExported(m *module) []string {
	usedOutside := map[types.Object]bool{}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() == nil || obj.Pkg() == p.types {
				continue
			}
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			usedOutside[obj] = true
		}
	}
	var out []string
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() && !usedOutside[obj] {
				out = append(out, p.rel+"."+name)
			}
		}
	}
	sort.Strings(out)
	return out
}

func checkExportedCeiling(m *module, r rules) []string {
	const rule = "exported-ceiling"
	if m.err != nil {
		return typed(rule, m)
	}
	names := unusedExported(m)
	n := len(names)
	switch {
	case n > r.ceiling:
		return []string{fmt.Sprintf("%s: %d exported identifiers in internal/* have no user outside their package; the ceiling is %d (unexport or delete %d):\n\t%s", rule, n, r.ceiling, n-r.ceiling, strings.Join(names, "\n\t"))}
	case n < r.ceiling:
		return []string{fmt.Sprintf("%s: %d exported identifiers in internal/* have no user outside their package; lower the ceiling from %d to %d", rule, n, r.ceiling, n)}
	}
	return nil
}

func underAny(rel string, roots []string) bool {
	for _, root := range roots {
		if rel == root || strings.HasPrefix(rel, root+"/") {
			return true
		}
	}
	return false
}

var (
	loadOnce sync.Once
	repo     *module
	loadErr  error
)

// repoModule loads this module once per test binary.
func repoModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { repo, loadErr = load(filepath.Join("..", "..")) })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return repo
}

func report(t *testing.T, violations []string) {
	t.Helper()
	for _, v := range violations {
		t.Error(v)
	}
}

func TestImportGraph(t *testing.T) {
	report(t, checkImportGraph(repoModule(t), moduleRules))
}

func TestPipesOnly(t *testing.T) {
	report(t, checkPipesOnly(repoModule(t)))
}

func TestRestrictedImports(t *testing.T) {
	report(t, checkRestrictedImports(repoModule(t)))
}

func TestEveryFunctionHasACaller(t *testing.T) {
	report(t, checkCallers(repoModule(t), moduleRules))
}

func TestExportedCeiling(t *testing.T) {
	report(t, checkExportedCeiling(repoModule(t), moduleRules))
}

// TestRulesFire runs every rule on testdata/fixture, a module built to
// break each one once, and checks that each violation is reported under
// its rule's name.
func TestRulesFire(t *testing.T) {
	m, err := load(filepath.Join("testdata", "fixture"))
	if err == nil {
		err = m.err
	}
	if err != nil {
		t.Fatal(err)
	}
	fixture := rules{
		imports: map[string][]string{
			"internal/core":  {},
			"internal/watch": {},
			"internal/frame": {},
			"internal/other": {"internal/frame"},
			"cmd/fixture":    {"internal/core", "internal/other"},
		},
		limits:    layerLimits,
		allowlist: map[string]string{"internal/other.Removed": "a test observer that was deleted"},
		maxAllow:  1,
		ceiling:   0,
	}
	got := check(m, fixture)
	for _, tc := range []struct {
		name, want string
	}{
		{"core imports watch (table)", "import-graph: internal/core imports internal/watch, which the import table does not list"},
		{"core imports watch (layer)", "import-graph: internal/core imports internal/watch; its layer may import only [internal/clock internal/ring]"},
		{"binary imports internal", "pipes-only: cmd/fixture imports internal/core"},
		{"second crc32 importer", "one-crc-importer: internal/other imports hash/crc32"},
		{"testing outside the test helpers", "testing-importers: internal/other imports testing"},
		{"uncalled exported function", "every-function-has-a-caller: internal/other.Uncalled has no non-test caller"},
		{"stale allowlist entry", "every-function-has-a-caller: allowlist entry internal/other.Removed is stale"},
		{"self-reference is not a caller", "every-function-has-a-caller: internal/other.loop has no non-test caller"},
		{"exported count over ceiling", "exported-ceiling: 4 exported identifiers in internal/* have no user outside their package; the ceiling is 0 (unexport or delete 4):\n\tinternal/frame.Size\n\tinternal/other.Box\n\tinternal/other.Err\n\tinternal/other.Uncalled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range got {
				if strings.HasPrefix(v, tc.want) {
					return
				}
			}
			t.Errorf("no violation starts with %q; got:\n%s", tc.want, strings.Join(got, "\n"))
		})
	}
	// The owner's import, a method an interface requires and methods
	// called through a generic instantiation are not violations.
	for _, v := range got {
		for _, bad := range []string{"one-crc-importer: internal/frame ", "internal/other.Err.Error", "internal/other.Box."} {
			if strings.Contains(v, bad) {
				t.Errorf("reported %q: %s", bad, v)
			}
		}
	}
}
