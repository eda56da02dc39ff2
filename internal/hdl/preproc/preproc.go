// Package preproc implements the LiveHDL preprocessor: `define, `undef,
// `ifdef, `ifndef, `else, `endif, `include, and macro expansion.
//
// Beyond producing expanded text for the parser, the preprocessor records
// which macros each source line depends on. LiveParser uses this map to
// implement the paper's rule (Section III-C) that a change to a directive
// dirties "any code below the affected lines", while a change inside one
// module dirties only that module.
package preproc

import (
	"fmt"
	"sort"
	"strings"
)

// Macro is a `define'd object-like macro (no arguments; argument macros are
// out of scope for LiveHDL, as they are for the paper's RTL).
type Macro struct {
	Name string
	Body string
	Line int // line of definition, 1-based
}

// Result is the output of preprocessing one source unit.
type Result struct {
	// Text is the fully expanded source. Line structure is preserved:
	// directive lines become empty lines so downstream positions map back
	// to the original file.
	Text string
	// Macros holds the final macro table.
	Macros map[string]Macro
	// LineDeps maps each 1-based output line to the set of macro names the
	// line's expansion or inclusion depended on (via `ifdef guards or
	// macro substitution).
	LineDeps map[int][]string
	// DefineLines maps macro names to the lines on which they were
	// (re)defined or undefined.
	DefineLines map[string][]int
	// Includes lists, in the order they were resolved, every path an
	// active `include asked the Includer for and the text it answered
	// with (nested includes too). Text is a function of the input, the
	// seed defines and these answers, so a caller holding a Result can
	// tell whether it is still current by asking the Includer again.
	Includes []Include
}

// Include is one resolved `include.
type Include struct {
	Path string
	Text string
}

// Includer resolves `include paths to file contents.
type Includer func(path string) (string, error)

// Options configures preprocessing.
type Options struct {
	// Defines seeds the macro table (like -D on a command line).
	Defines map[string]string
	// Include resolves `include directives. When nil, `include is an error.
	Include Includer
}

const maxExpandDepth = 64

// Process preprocesses src. file is used for diagnostics only.
func Process(file, src string, opts Options) (*Result, error) {
	p := &processor{
		res: &Result{
			Macros:      make(map[string]Macro),
			LineDeps:    make(map[int][]string),
			DefineLines: make(map[string][]int),
		},
		include: opts.Include,
		file:    file,
	}
	for k, v := range opts.Defines {
		p.res.Macros[k] = Macro{Name: k, Body: v}
	}
	var out strings.Builder
	if err := p.run(src, &out, nil); err != nil {
		return nil, err
	}
	p.res.Text = out.String()
	return p.res, nil
}

type processor struct {
	res     *Result
	include Includer
	file    string
	outLine int // lines emitted so far
}

// condState tracks one `ifdef level.
type condState struct {
	guard    string // macro name guarding this level
	active   bool   // are we currently emitting?
	taken    bool   // has any branch at this level been taken?
	elseSeen bool
}

func (p *processor) run(src string, out *strings.Builder, conds []condState) error {
	lines := strings.Split(src, "\n")
	for i, line := range lines {
		srcLine := i + 1
		trimmed := strings.TrimSpace(line)
		active := true
		var guards []string
		for _, c := range conds {
			if !c.active {
				active = false
			}
			guards = append(guards, c.guard)
		}

		if strings.HasPrefix(trimmed, "`") {
			word, rest := splitDirective(trimmed)
			switch word {
			case "`define":
				if active {
					name, body := splitMacroDef(rest)
					if name == "" {
						return fmt.Errorf("%s:%d: malformed `define", p.file, srcLine)
					}
					p.res.Macros[name] = Macro{Name: name, Body: body, Line: srcLine}
					p.res.DefineLines[name] = append(p.res.DefineLines[name], srcLine)
				}
				p.emit(out, "", nil)
				continue
			case "`undef":
				name := strings.TrimSpace(rest)
				if active {
					delete(p.res.Macros, name)
					p.res.DefineLines[name] = append(p.res.DefineLines[name], srcLine)
				}
				p.emit(out, "", nil)
				continue
			case "`ifdef", "`ifndef":
				name := strings.TrimSpace(rest)
				_, defined := p.res.Macros[name]
				take := defined
				if word == "`ifndef" {
					take = !defined
				}
				conds = append(conds, condState{guard: name, active: active && take, taken: take})
				p.emit(out, "", nil)
				continue
			case "`else":
				if len(conds) == 0 {
					return fmt.Errorf("%s:%d: `else without `ifdef", p.file, srcLine)
				}
				c := &conds[len(conds)-1]
				if c.elseSeen {
					return fmt.Errorf("%s:%d: duplicate `else", p.file, srcLine)
				}
				c.elseSeen = true
				outer := true
				for _, cc := range conds[:len(conds)-1] {
					if !cc.active {
						outer = false
					}
				}
				c.active = outer && !c.taken
				c.taken = true
				p.emit(out, "", nil)
				continue
			case "`endif":
				if len(conds) == 0 {
					return fmt.Errorf("%s:%d: `endif without `ifdef", p.file, srcLine)
				}
				conds = conds[:len(conds)-1]
				p.emit(out, "", nil)
				continue
			case "`include":
				if !active {
					p.emit(out, "", nil)
					continue
				}
				path := strings.Trim(strings.TrimSpace(rest), "\"")
				if p.include == nil {
					return fmt.Errorf("%s:%d: `include %q with no includer configured", p.file, srcLine, path)
				}
				body, err := p.include(path)
				if err != nil {
					return fmt.Errorf("%s:%d: `include %q: %w", p.file, srcLine, path, err)
				}
				p.res.Includes = append(p.res.Includes, Include{Path: path, Text: body})
				if err := p.run(body, out, conds); err != nil {
					return err
				}
				continue
			}
			// Unknown backtick word inside an inactive region: drop;
			// inside an active region it may be a macro use mid-line —
			// fall through to expansion.
		}

		if !active {
			p.emit(out, "", guards)
			continue
		}
		expanded, used, err := p.expand(line, srcLine, 0)
		if err != nil {
			return err
		}
		deps := append(guards, used...)
		p.emit(out, expanded, deps)
	}
	// Trailing split artifact: strings.Split gives k+1 entries for k
	// newlines; emit added a newline after each, so drop the final one.
	s := out.String()
	if strings.HasSuffix(s, "\n") {
		out.Reset()
		out.WriteString(s[:len(s)-1])
	}
	if len(conds) != 0 {
		return fmt.Errorf("%s: unterminated `ifdef (guard %q)", p.file, conds[len(conds)-1].guard)
	}
	return nil
}

func (p *processor) emit(out *strings.Builder, line string, deps []string) {
	p.outLine++
	out.WriteString(line)
	out.WriteByte('\n')
	if len(deps) > 0 {
		seen := map[string]bool{}
		var uniq []string
		for _, d := range deps {
			if d != "" && !seen[d] {
				seen[d] = true
				uniq = append(uniq, d)
			}
		}
		sort.Strings(uniq)
		p.res.LineDeps[p.outLine] = uniq
	}
}

// expand substitutes `NAME macro uses in line.
func (p *processor) expand(line string, srcLine, depth int) (string, []string, error) {
	if depth > maxExpandDepth {
		return "", nil, fmt.Errorf("%s:%d: macro expansion too deep (recursive `define?)", p.file, srcLine)
	}
	if strings.IndexByte(line, '`') < 0 {
		return line, nil, nil // nothing to substitute: most lines
	}
	var used []string
	var out strings.Builder
	for i := 0; i < len(line); {
		c := line[i]
		if c != '`' {
			out.WriteByte(c)
			i++
			continue
		}
		j := i + 1
		for j < len(line) && (line[j] == '_' || isAlnum(line[j])) {
			j++
		}
		name := line[i+1 : j]
		m, ok := p.res.Macros[name]
		if !ok {
			return "", nil, fmt.Errorf("%s:%d: undefined macro `%s", p.file, srcLine, name)
		}
		used = append(used, name)
		sub, subUsed, err := p.expand(m.Body, srcLine, depth+1)
		if err != nil {
			return "", nil, err
		}
		used = append(used, subUsed...)
		out.WriteString(sub)
		i = j
	}
	return out.String(), used, nil
}

func isAlnum(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func splitDirective(line string) (word, rest string) {
	i := 1
	for i < len(line) && (line[i] == '_' || isAlnum(line[i])) {
		i++
	}
	return line[:i], line[i:]
}

func splitMacroDef(rest string) (name, body string) {
	rest = strings.TrimSpace(rest)
	i := 0
	for i < len(rest) && (rest[i] == '_' || isAlnum(rest[i])) {
		i++
	}
	if i == 0 {
		return "", ""
	}
	return rest[:i], strings.TrimSpace(stripLineComment(rest[i:]))
}

func stripLineComment(s string) string {
	if k := strings.Index(s, "//"); k >= 0 {
		return s[:k]
	}
	return s
}
