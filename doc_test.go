package publishing_test

// The documents say what HEAD does, and each number has one owner.
//
// EXPERIMENTS.md quotes every deterministic table it reports as a generated
// block, the verbatim output of the code that owns it:
//
//	<!-- generated: NAME -->
//	```
//	output
//	```
//	<!-- end generated -->
//
// NAME is a cmd/experiments or cmd/pubsim report ("pubsim -fig55", printed
// by internal/figures) or TestExperimentNumbers. TestDocBlocks and
// TestExperimentNumbers fail when a block differs from a fresh run, and
// -update rewrites it. TestDocCitations fails when README.md, DESIGN.md or
// EXPERIMENTS.md names a path, test, flag or heading that does not exist.

import (
	"cmp"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"publishing/internal/figures"
)

const experimentsDoc = "EXPERIMENTS.md"

// updating reports the -update flag, which fingerprint_test.go defines.
func updating() bool { return flag.Lookup("update").Value.String() == "true" }

// docBlock returns EXPERIMENTS.md and the byte span of generated block
// name's body, the fenced text between its markers.
func docBlock(t *testing.T, name string) (doc string, lo, hi int) {
	t.Helper()
	doc = readText(t, experimentsDoc)
	begin := "<!-- generated: " + name + " -->\n"
	lo = strings.Index(doc, begin)
	if lo < 0 {
		t.Fatalf("%s has no generated block %q: add its markers, then run with -update", experimentsDoc, name)
	}
	lo += len(begin)
	hi = strings.Index(doc[lo:], "<!-- end generated -->")
	if hi < 0 {
		t.Fatalf("%s: generated block %q has no end marker", experimentsDoc, name)
	}
	return doc, lo, lo + hi
}

// checkDocBlock fails unless generated block name holds got, fenced, or
// under -update rewrites the block to hold it.
func checkDocBlock(t *testing.T, name, got string) {
	t.Helper()
	doc, lo, hi := docBlock(t, name)
	want := "```\n" + got + "```\n"
	if doc[lo:hi] == want {
		return
	}
	if updating() {
		if err := os.WriteFile(experimentsDoc, []byte(doc[:lo]+want+doc[hi:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	old, now := strings.Split(doc[lo:hi], "\n"), strings.Split(want, "\n")
	i := 0
	for i < min(len(old), len(now)) && old[i] == now[i] {
		i++
	}
	at := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "(end of block)"
	}
	t.Errorf("%s block %q differs from this run at its line %d; if intended, rerun with -update\n  committed: %s\n  this run:  %s",
		experimentsDoc, name, i+1, at(old), at(now))
}

// reportCommands are the commands whose reports EXPERIMENTS.md quotes, by
// command name.
var reportCommands = map[string][]figures.Report{
	"experiments": figures.Experiments,
	"pubsim":      figures.Model,
}

// Each report of cmd/experiments and cmd/pubsim is quoted by a block named
// for the command line that prints it, and every block has an owner.
func TestDocBlocks(t *testing.T) {
	owners := []string{"TestExperimentNumbers"}
	for _, cmd := range []string{"experiments", "pubsim"} {
		for _, r := range reportCommands[cmd] {
			name := cmd + " -" + r.Flag
			owners = append(owners, name)
			t.Run(name, func(t *testing.T) {
				var out strings.Builder
				r.Write(&out, 1)
				checkDocBlock(t, name, out.String())
			})
		}
	}
	for _, m := range regexp.MustCompile(`(?m)^<!-- generated: (.*) -->$`).FindAllStringSubmatch(readText(t, experimentsDoc), -1) {
		if !slices.Contains(owners, m[1]) {
			t.Errorf("%s: generated block %q has no owner", experimentsDoc, m[1])
		}
	}
}

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	testName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	runPattern = regexp.MustCompile(`(?:^|[\s` + "`" + `])-(?:run|bench)\s+('[^']*'|"[^"]*"|[^\s` + "`" + `]+)`)
	flagDecl   = regexp.MustCompile(`flag\.\w+\("([\w-]+)"`)
	fileName   = regexp.MustCompile(`^[\w.-]+\.(go|md|golden|json|mod)$`)
	docCite    = regexp.MustCompile(`\b(DESIGN|EXPERIMENTS)\.md,?\s*((?:"[^"]+"(?:,?\s*(?:and\s+)?)?)+)`)
	quoted     = regexp.MustCompile(`"([^"]+)"`)
)

// TestDocCitations checks what README.md, DESIGN.md and EXPERIMENTS.md
// cite against the tree: every backticked repo path exists; every
// Test/Benchmark/Fuzz name is a function of some _test.go file, and every
// -run or -bench pattern matches one; every flag after a cmd/* command is
// one that command defines. Every heading of DESIGN.md or EXPERIMENTS.md
// that Go comments, the Makefile or these documents cite by its quoted
// title names a heading.
func TestDocCitations(t *testing.T) {
	tests, basenames, goFiles := treeIndex(t)
	testList := slices.Collect(maps.Keys(tests))
	flags := cmdFlags(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text := readText(t, doc)
		where := func(off int) string { return fmt.Sprintf("%s:%d", doc, strings.Count(text[:off], "\n")+1) }

		// -run and -bench patterns match some test; the names left over
		// once they are blanked out name one.
		names := []byte(text)
		for _, m := range runPattern.FindAllStringSubmatchIndex(text, -1) {
			for _, alt := range strings.Split(strings.Trim(text[m[2]:m[3]], `'"`), "|") {
				alt, _, _ = strings.Cut(alt, "/")
				if !strings.ContainsAny(alt, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz") {
					continue // '^$' and the like select nothing on purpose
				}
				if re, err := regexp.Compile(alt); err != nil {
					t.Errorf("%s: pattern %q: %v", where(m[2]), alt, err)
				} else if !slices.ContainsFunc(testList, re.MatchString) {
					t.Errorf("%s: pattern %q matches no test, benchmark or fuzz target", where(m[2]), alt)
				}
			}
			copy(names[m[2]:m[3]], strings.Repeat(" ", m[3]-m[2]))
		}
		for _, m := range testName.FindAllIndex(names, -1) {
			if name := text[m[0]:m[1]]; !tests[name] {
				t.Errorf("%s: %s is no test, benchmark or fuzz target", where(m[0]), name)
			}
		}

		for _, s := range codeSpans(text) {
			cmd := ""
			for _, tok := range strings.Fields(s.text) {
				tok = strings.Trim(tok, `'"(),;:`)
				if c, ok := strings.CutPrefix(strings.TrimPrefix(tok, "./"), "cmd/"); ok && !strings.Contains(c, "/") || flags[tok] != nil {
					cmd = cmp.Or(c, tok)
					if _, err := os.Stat("cmd/" + cmd); err != nil {
						t.Errorf("%s: `%s` is no command", where(s.off), tok)
					}
					continue
				}
				if tok == "|" || tok == "&&" || tok == ";" {
					cmd = ""
				}
				if f, ok := strings.CutPrefix(tok, "-"); ok && cmd != "" && f != "" {
					if f, _, _ = strings.Cut(f, "="); !slices.Contains(flags[cmd], f) {
						t.Errorf("%s: cmd/%s has no flag -%s", where(s.off), cmd, f)
					}
				}
				path, _, _ := strings.Cut(strings.TrimPrefix(tok, "./"), ":") // a path:line reference
				switch {
				case strings.ContainsAny(path, "*<>{}$") || strings.HasPrefix(path, "/"):
					// a glob, a placeholder or a path outside the repository
				case strings.Contains(path, "/"):
					top, _, _ := strings.Cut(path, "/")
					if fi, err := os.Stat(top); err == nil && fi.IsDir() {
						if _, err := os.Stat(path); err != nil {
							t.Errorf("%s: `%s` is no path in the repository", where(s.off), tok)
						}
					}
				case fileName.MatchString(path) && !basenames[path]:
					t.Errorf("%s: `%s` is no file in the repository", where(s.off), tok)
				}
			}
		}
	}

	headings := map[string][]string{}
	for _, doc := range []string{"DESIGN", "EXPERIMENTS"} {
		for _, l := range strings.Split(readText(t, doc+".md"), "\n") {
			if h, ok := strings.CutPrefix(l, "#"); ok {
				headings[doc] = append(headings[doc], strings.TrimSpace(strings.TrimLeft(h, "#")))
			}
		}
	}
	for _, f := range append(goFiles, "Makefile", "README.md", "DESIGN.md", "EXPERIMENTS.md") {
		for _, m := range docCite.FindAllStringSubmatch(prose(f, readText(t, f)), -1) {
			for _, q := range quoted.FindAllStringSubmatch(m[2], -1) {
				if !slices.Contains(headings[m[1]], q[1]) {
					t.Errorf("%s cites %s.md %q, which is no heading there", f, m[1], q[1])
				}
			}
		}
	}
}

func readText(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// treeIndex walks the repository for the names of its test, benchmark and
// fuzz functions, the base names of its files, and its Go files.
func treeIndex(t *testing.T) (tests, basenames map[string]bool, goFiles []string) {
	tests, basenames = map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir():
			return nil
		}
		basenames[d.Name()] = true
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, path)
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(readText(t, path), -1) {
				tests[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests, basenames, goFiles
}

// cmdFlags returns each command's flags by command name: those its files
// declare and those of the reports it prints.
func cmdFlags(t *testing.T) map[string][]string {
	flags := map[string][]string{}
	files, _ := filepath.Glob("cmd/*/*.go")
	for _, f := range files {
		cmd := filepath.Base(filepath.Dir(f))
		for _, m := range flagDecl.FindAllStringSubmatch(readText(t, f), -1) {
			flags[cmd] = append(flags[cmd], m[1])
		}
	}
	for cmd, reports := range reportCommands { // any order: appends to distinct keys
		for _, r := range reports {
			flags[cmd] = append(flags[cmd], r.Flag)
		}
	}
	return flags
}

// A span is a piece of a document's code: inline code in prose, or one
// line of a fenced block, at its byte offset.
type span struct {
	off  int
	text string
}

func codeSpans(text string) []span {
	var spans []span
	prose := []byte(text)
	fenced := false
	for off := 0; off < len(text); {
		line, _, _ := strings.Cut(text[off:], "\n")
		if fence := strings.HasPrefix(line, "```"); fence || fenced {
			if fence {
				fenced = !fenced
			} else {
				spans = append(spans, span{off, line})
			}
			copy(prose[off:], strings.Repeat(" ", len(line)))
		}
		off += len(line) + 1
	}
	for _, m := range inlineCode.FindAllSubmatchIndex(prose, -1) {
		spans = append(spans, span{m[2], text[m[2]:m[3]]})
	}
	return spans
}

// prose returns what file f says in prose, one line after another: a Go
// file's comments, the Makefile's comments, or a whole document. A title
// quoted across a comment's line break reads as one string.
func prose(f, text string) string {
	marker := "#" // the Makefile's comments
	switch {
	case strings.HasSuffix(f, ".go"):
		marker = "//"
	case strings.HasSuffix(f, ".md"):
		marker = ""
	}
	var b strings.Builder
	for _, l := range strings.Split(text, "\n") {
		if l, ok := strings.CutPrefix(strings.TrimSpace(l), marker); ok {
			b.WriteString(strings.TrimSpace(strings.TrimLeft(l, "#")) + " ")
		}
	}
	return b.String()
}
