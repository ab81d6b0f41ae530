package exp

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dyflow/internal/apps"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/spec"
	"dyflow/internal/stats"
	"dyflow/internal/trace"
	"dyflow/internal/wms"
	"dyflow/specs"
)

// moduleRoot is the repository root, relative to this package's directory.
const moduleRoot = "../.."

// unshippedConstructs lists the constructs that no shipped document
// reaches, as "kind NAME", each with the reason it stays.
var unshippedConstructs = map[string]string{
	// Named by the paper; each waits for a shipped example.
	"source ADIOS2":        "the paper's Figure 7 ERROR sensor streams application data over ADIOS2",
	"source DB":            "the paper's §2.1 names the database service as the third source medium",
	"op signal_*_task":     "a low-level operation of the paper's §3.4 that wms.Savanna.SignalTask implements and no plan issues",
	"op release_resources": "a low-level operation of the paper's §3.4 that wms.Savanna.ReleaseResources implements and no plan issues",
	"dependency LOOSE":     "the paper's §2.3 names the disk-coupled dependency beside TIGHT",
	"join DIV":             "the paper's §2.1 join example, IPC = instructions DIV cycles",

	// The rest of a vocabulary whose other members are reached: one
	// parser and one evaluator serve each, so a member costs a name.
	"granularity node-task":     nodeGranularity,
	"granularity node-workflow": nodeGranularity,
	"join MUL":                  joinArith,
	"join ADD":                  joinArith,
	"compare GE":                compareSet,
	"compare LE":                compareSet,
	"compare NE":                compareSet,
	"reduction MIN":             sharedOp,
	"reduction SUM":             sharedOp,
	"reduction AVG":             sharedOp,
	"reduction COUNT":           sharedOp,
	"reduction LAST":            sharedOp,
	"reduction MEDIAN":          sharedOp,
	"reduction STDDEV":          sharedOp,
	"reduction SLOPE":           sharedOp,
	"pre-analysis MAX":          sharedOp,
	"pre-analysis MIN":          sharedOp,
	"pre-analysis SUM":          sharedOp,
	"pre-analysis COUNT":        sharedOp,
	"pre-analysis FIRST":        sharedOp,
	"pre-analysis LAST":         sharedOp,
	"pre-analysis MEDIAN":       sharedOp,
	"pre-analysis STDDEV":       sharedOp,
}

const (
	nodeGranularity = "one of the four group-by granularities of the paper's §2.1: the Monitor groups a task's ranks by node"
	joinArith       = "an arithmetic join beside the paper's DIV and the shipped SUB; JoinOp.Apply holds all four"
	compareSet      = "completes the comparison set beside the shipped GT, LT and EQ; CompareOp.Compare holds all six"
	sharedOp        = "a member of stats.Op, the one vocabulary of group-by reductions and pre-analyses: stats.Reduce and stats.Window serve every member"
)

// TestEveryConstructIsShipped keeps the XML language no larger than what
// it is used for: every construct the language accepts — source type,
// granularity, group-by reduction, pre-analysis, join and compare
// operation, high-level action, dependency type — is reached by a shipped
// document, and every low-level op kind Actuation can execute is executed
// by a golden run, or the construct is in unshippedConstructs with its
// reason. The shipped documents are specs/*.xml, examples/cli's document,
// the <dyflow> string literals of the module's non-test Go files and the
// chaos scenario's splice; the ops are those the six golden runs of
// determinism_test.go recorded, so no world is built for this test when
// they ran before it. docs/XML.md lists exactly the language's constructs.
func TestEveryConstructIsShipped(t *testing.T) {
	for _, g := range goldenRuns {
		if goldenOps[g.scenario] == nil {
			t.Run(g.scenario, g.test)
		}
	}
	reached := map[string]bool{}
	for _, kinds := range goldenOps {
		for kind := range kinds {
			reached["op "+kind] = true
		}
	}
	for name, doc := range shippedDocuments(t) {
		cfg, err := spec.CompileString(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reachedBy(cfg, reached)
	}
	all := languageConstructs()
	found, stale := unshipped(all, reached, unshippedConstructs)
	for _, c := range found {
		t.Errorf("no shipped document reaches it: %s", c)
	}
	for _, s := range stale {
		t.Errorf("unshippedConstructs names %s", s)
	}
	md, err := os.ReadFile(filepath.Join(moduleRoot, "docs/XML.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range undocumented(all, string(md)) {
		t.Errorf("docs/XML.md: %s", d)
	}
}

// TestUnshippedCatchesPlants runs the construct checks on planted inputs:
// a construct neither reached nor allow-listed is found; an allow-list
// entry that is reached, or that names no construct, is stale; and a
// document list that misses a construct or names one the language does
// not have is reported.
func TestUnshippedCatchesPlants(t *testing.T) {
	all := []string{"source A", "source B", "source C", "op stop", "join ADD", "join SUB"}
	reached := map[string]bool{"source A": true, "op stop": true, "join ADD": true, "join SUB": true}
	allow := map[string]string{"source B": "a seam", "source A": "reached", "source Z": "gone"}
	found, stale := unshipped(all, reached, allow)
	if want := []string{"source C"}; !slices.Equal(found, want) {
		t.Errorf("found %v, want %v", found, want)
	}
	if want := []string{"source A, which a shipped document reaches", "source Z, which the language does not have"}; !slices.Equal(stale, want) {
		t.Errorf("stale %v, want %v", stale, want)
	}
	const md = "| `A` | a |\n| `B` | b |\n| `Z` | z |\n<join sensor-id=\"S\" operation=\"ADD|SUB\" [x]/>\n"
	got := undocumented(all, md)
	want := []string{"source lists Z, which the language does not have", "source misses C"}
	if !slices.Equal(got, want) {
		t.Errorf("undocumented %v, want %v", got, want)
	}
}

// goldenRuns are the six golden tests of determinism_test.go, each by the
// scenario whose ops it records in goldenOps.
var goldenRuns = []struct {
	scenario string
	test     func(*testing.T)
}{
	{ScenarioQuickstart, TestQuickstartGoldenArtifacts},
	{ScenarioGrayScott, TestGrayScottGoldenArtifacts},
	{ScenarioOverprov, TestOverprovGoldenArtifacts},
	{ScenarioXGC, TestXGCGoldenArtifacts},
	{ScenarioLAMMPS, TestLAMMPSGoldenArtifacts},
	{ScenarioChaos, TestChaosGoldenArtifacts},
}

// goldenOps holds, per scenario, the low-level op kinds its golden runs
// executed.
var goldenOps = map[string]map[string]bool{}

// recordOps adds the op kinds world w executed to scenario's goldenOps.
func recordOps(scenario string, w *World) {
	kinds := goldenOps[scenario]
	if kinds == nil {
		kinds = map[string]bool{}
		goldenOps[scenario] = kinds
	}
	w.Trace.VisitOps(func(op *trace.Op) { kinds[op.Kind] = true })
}

// languageConstructs returns every construct the XML language accepts and
// every low-level op the Savanna plugin implements, as "kind NAME": each
// enum's values from 0 up to the first that has no name.
func languageConstructs() []string {
	var out []string
	add := func(kind string, name func(i int) string) {
		for i := 0; name(i) != ""; i++ {
			out = append(out, kind+" "+name(i))
		}
	}
	statsOp := func(i int) string {
		s := stats.Op(i).String()
		if _, err := stats.ParseOp(s); err != nil {
			return ""
		}
		return s
	}
	add("source", func(i int) string { return spec.SourceType(i).String() })
	add("granularity", func(i int) string { return spec.Granularity(i).String() })
	add("reduction", statsOp)
	add("pre-analysis", statsOp)
	add("join", func(i int) string { return spec.JoinOp(i).String() })
	add("compare", func(i int) string { return spec.CompareOp(i).String() })
	add("action", func(i int) string { return spec.Action(i).String() })
	add("dependency", func(i int) string { return spec.DepType(i).String() })
	add("op", func(i int) string { return arbiter.OpKind(i).String() })
	// The paper's low-level operations that Savanna implements beside the
	// two kinds a plan carries.
	sv := reflect.TypeOf(&wms.Savanna{})
	for _, op := range []struct{ name, method string }{{"signal_*_task", "SignalTask"}, {"release_resources", "ReleaseResources"}} {
		if _, ok := sv.MethodByName(op.method); ok {
			out = append(out, "op "+op.name)
		}
	}
	return out
}

// reachedBy marks the constructs cfg declares. A sensor's <preprocess>
// and a policy's <history> operation are both pre-analyses.
func reachedBy(cfg *spec.Config, reached map[string]bool) {
	mark := func(kind string, name fmt.Stringer) { reached[kind+" "+name.String()] = true }
	for _, sd := range cfg.Sensors {
		mark("source", sd.Source)
		if sd.Preprocess != nil {
			mark("pre-analysis", *sd.Preprocess)
		}
		for _, g := range sd.Groups {
			mark("granularity", g.Granularity)
			mark("reduction", g.Reduction)
		}
		if sd.Join != nil {
			mark("join", sd.Join.Op)
			if sd.Join.Granularity != nil {
				mark("granularity", *sd.Join.Granularity)
			}
		}
	}
	for _, pd := range cfg.Policies {
		mark("compare", pd.Eval)
		mark("action", pd.Action)
		for _, ref := range pd.Sensors {
			mark("granularity", ref.Granularity)
		}
		if pd.History != nil {
			mark("pre-analysis", pd.History.Op)
		}
	}
	for _, r := range cfg.Rules {
		for _, d := range r.Deps {
			mark("dependency", d.Type)
		}
	}
}

// unshipped returns, in order, the constructs of all that are neither
// reached nor in allow, and the allow entries that are reached or name no
// construct of all.
func unshipped(all []string, reached map[string]bool, allow map[string]string) (found, stale []string) {
	for _, c := range all {
		if !reached[c] && allow[c] == "" {
			found = append(found, c)
		}
	}
	for _, key := range sortedKeys(allow) {
		switch {
		case !slices.Contains(all, key):
			stale = append(stale, key+", which the language does not have")
		case reached[key]:
			stale = append(stale, key+", which a shipped document reaches")
		}
	}
	return found, stale
}

// docLists finds, per construct kind, the lists docs/XML.md gives of it:
// each match's first group holds names separated by spaces, commas, bars
// or backquotes. Low-level ops are not part of the XML language, so the
// page does not list them.
var docLists = map[string]*regexp.Regexp{
	"source":       regexp.MustCompile("(?m)^\\| `([A-Z0-9]+)` \\|"),
	"granularity":  regexp.MustCompile("Granularities: ([^.]*)\\."),
	"reduction":    regexp.MustCompile("Reduction / pre-analysis operations: `([^`]*)`"),
	"pre-analysis": regexp.MustCompile("Reduction / pre-analysis operations: `([^`]*)`"),
	"join":         regexp.MustCompile(`<join sensor-id="S" operation="([^"]*)"`),
	"compare":      regexp.MustCompile(`<eval operation="([^"]*)" threshold="X"`),
	"action":       regexp.MustCompile("`<action>` — `([^`]*)`"),
	"dependency":   regexp.MustCompile("Dependencies, `type=\"([^\"]*)\"`"),
}

// undocumented compares the lists md gives of each kind in docLists with
// the constructs of all, reporting a name a list gives that the language
// does not have and a construct the lists miss.
func undocumented(all []string, md string) []string {
	var out []string
	for _, kind := range sortedKeys(docLists) {
		listed := map[string]bool{}
		for _, m := range docLists[kind].FindAllStringSubmatch(md, -1) {
			for _, name := range strings.FieldsFunc(m[1], func(r rune) bool { return strings.ContainsRune(" \n,|`", r) }) {
				listed[name] = true
			}
		}
		for _, name := range sortedKeys(listed) {
			if !slices.Contains(all, kind+" "+name) {
				out = append(out, kind+" lists "+name+", which the language does not have")
			}
		}
		for _, c := range all {
			if name, ok := strings.CutPrefix(c, kind+" "); ok && !listed[name] {
				out = append(out, kind+" misses "+name)
			}
		}
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// shippedDocuments returns every shipped orchestration document by where
// it comes from.
func shippedDocuments(t *testing.T) map[string]string {
	t.Helper()
	docs := map[string]string{}
	paths, err := filepath.Glob(filepath.Join(moduleRoot, "specs/*.xml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(paths, filepath.Join(moduleRoot, "examples/cli/orchestration.xml")) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[path] = string(b)
	}
	for _, m := range []apps.Machine{apps.Summit, apps.Deepthought2} {
		docs["chaos splice on "+m.String()] = spliceRecovery(specs.GrayScott(m))
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != moduleRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil || !bytes.Contains(src, []byte("<dyflow>")) {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "<dyflow>") {
					docs[fset.Position(lit.Pos()).String()] = s
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return docs
}
