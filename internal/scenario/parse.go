package scenario

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse reads one scenario from its text form. The grammar is
// line-oriented and brace-blocked, in the spirit of tsload .rex files:
//
//	# comment
//	scenario <name> {
//		lock mutex | lock rw <readWeight> <writeWeight>
//		slice <dur>       (mutex)  |  period <dur>  (rw)
//		keys <n>          (mutex only; > 1 makes a multi-key scenario)
//		seed <int>
//		horizon <dur>
//		group <name> <count> {
//			class reader|writer            (rw only)
//			key <i>                        (multi-key only; default 0)
//			start <dur>
//			stagger <dur>
//			arrival closed | poisson <mean> | stepped <step> c1 c2 ...
//			ops <n>                        (closed/poisson)
//			cs fixed <d> | uniform <lo> <hi> | exp <mean>
//			think <dist>                   (closed only; like a poisson
//			                                gap, one is waited before
//			                                the first acquire too)
//			timeout <dur>                  (mutex only)
//			close-every <n>                (mutex only)
//			do                             (mutex only: combine via Handle.Do)
//		}
//		assert jain-hold >= <f> | max-share <= <f> |
//		       grants >= <n> | timeouts <= <n> | no-lost-grant
//		allow grant-order|timeouts|bans|hold-share
//	}
//
// Comments run from '#' to end of line. Durations use Go syntax
// (500us, 1.5ms). Parse errors carry the 1-based line number.
func Parse(input string) (*Scenario, error) {
	p := &parser{}
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		p.line++
		if err := p.consume(sc.Text()); err != nil {
			return nil, fmt.Errorf("line %d: %w", p.line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.state != stateDone {
		return nil, fmt.Errorf("line %d: unexpected end of input (unclosed block)", p.line)
	}
	if err := p.s.Validate(); err != nil {
		return nil, err
	}
	return p.s, nil
}

// parser states: before the scenario block, inside it, inside a group
// block, and after the closing brace.
type parseState int

const (
	stateTop parseState = iota
	stateScenario
	stateGroup
	stateDone
)

type parser struct {
	line  int
	state parseState
	s     *Scenario
	g     *Group
}

// consume processes one raw line.
func (p *parser) consume(raw string) error {
	line := raw
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	f := strings.Fields(line)
	if len(f) == 0 {
		return nil
	}
	switch p.state {
	case stateTop:
		if len(f) != 3 || f[0] != "scenario" || f[2] != "{" {
			return fmt.Errorf("expected `scenario <name> {`, got %q", strings.TrimSpace(line))
		}
		p.s = &Scenario{Name: f[1]}
		p.state = stateScenario
		return nil
	case stateScenario:
		return p.scenarioLine(f)
	case stateGroup:
		return p.groupLine(f)
	default:
		return fmt.Errorf("content after the scenario block: %q", strings.TrimSpace(line))
	}
}

func (p *parser) scenarioLine(f []string) error {
	switch f[0] {
	case "}":
		if len(f) != 1 {
			return fmt.Errorf("trailing tokens after }")
		}
		p.state = stateDone
		return nil
	case "lock":
		switch {
		case len(f) == 2 && f[1] == "mutex":
			p.s.Lock = LockMutex
		case len(f) == 4 && f[1] == "rw":
			p.s.Lock = LockRW
			var err error
			if p.s.ReadWeight, err = parseInt64(f[2]); err != nil {
				return fmt.Errorf("lock rw read weight: %w", err)
			}
			if p.s.WriteWeight, err = parseInt64(f[3]); err != nil {
				return fmt.Errorf("lock rw write weight: %w", err)
			}
			if p.s.ReadWeight <= 0 || p.s.WriteWeight <= 0 {
				return fmt.Errorf("lock rw weights must be positive")
			}
		default:
			return fmt.Errorf("expected `lock mutex` or `lock rw <rweight> <wweight>`")
		}
		return nil
	case "slice":
		return p.duration(f, &p.s.Slice)
	case "period":
		return p.duration(f, &p.s.Period)
	case "keys":
		if len(f) != 2 {
			return fmt.Errorf("expected `keys <n>`")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("keys: %w", err)
		}
		if n < 1 {
			return fmt.Errorf("keys: must be >= 1")
		}
		p.s.Keys = n
		return nil
	case "seed":
		if len(f) != 2 {
			return fmt.Errorf("expected `seed <int>`")
		}
		v, err := parseInt64(f[1])
		if err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		p.s.Seed = v
		return nil
	case "horizon":
		return p.duration(f, &p.s.Horizon)
	case "group":
		if len(f) != 4 || f[3] != "{" {
			return fmt.Errorf("expected `group <name> <count> {`")
		}
		n, err := strconv.Atoi(f[2])
		if err != nil {
			return fmt.Errorf("group count: %w", err)
		}
		p.s.Groups = append(p.s.Groups, Group{Name: f[1], Count: n})
		p.g = &p.s.Groups[len(p.s.Groups)-1]
		p.state = stateGroup
		return nil
	case "assert":
		a, err := parseAssert(f[1:])
		if err != nil {
			return err
		}
		p.s.Asserts = append(p.s.Asserts, a)
		return nil
	case "allow":
		if len(f) != 2 {
			return fmt.Errorf("expected `allow <divergence-code>`")
		}
		p.s.Allow = append(p.s.Allow, f[1])
		return nil
	}
	return fmt.Errorf("unknown scenario field %q", f[0])
}

func (p *parser) groupLine(f []string) error {
	switch f[0] {
	case "}":
		if len(f) != 1 {
			return fmt.Errorf("trailing tokens after }")
		}
		p.g = nil
		p.state = stateScenario
		return nil
	case "class":
		if len(f) != 2 || (f[1] != "reader" && f[1] != "writer") {
			return fmt.Errorf("expected `class reader` or `class writer`")
		}
		p.g.Writer = f[1] == "writer"
		return nil
	case "key":
		if len(f) != 2 {
			return fmt.Errorf("expected `key <index>`")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("key: %w", err)
		}
		if n < 0 {
			return fmt.Errorf("key: must be >= 0")
		}
		p.g.Key = n
		return nil
	case "start":
		return p.duration(f, &p.g.Start)
	case "stagger":
		return p.duration(f, &p.g.Stagger)
	case "arrival":
		a, err := parseArrival(f[1:])
		if err != nil {
			return err
		}
		p.g.Arrival = a
		return nil
	case "ops":
		if len(f) != 2 {
			return fmt.Errorf("expected `ops <n>`")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("ops: %w", err)
		}
		p.g.Ops = n
		return nil
	case "cs":
		d, err := parseDist(f[1:])
		if err != nil {
			return fmt.Errorf("cs: %w", err)
		}
		p.g.CS = d
		return nil
	case "think":
		d, err := parseDist(f[1:])
		if err != nil {
			return fmt.Errorf("think: %w", err)
		}
		p.g.Think = d
		return nil
	case "timeout":
		return p.duration(f, &p.g.Timeout)
	case "close-every":
		if len(f) != 2 {
			return fmt.Errorf("expected `close-every <n>`")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("close-every: %w", err)
		}
		p.g.CloseEvery = n
		return nil
	case "do":
		if len(f) != 1 {
			return fmt.Errorf("`do` takes no arguments")
		}
		p.g.Do = true
		return nil
	}
	return fmt.Errorf("unknown group field %q", f[0])
}

// duration parses a single-argument duration field into dst.
func (p *parser) duration(f []string, dst *time.Duration) error {
	if len(f) != 2 {
		return fmt.Errorf("expected `%s <duration>`", f[0])
	}
	d, err := time.ParseDuration(f[1])
	if err != nil {
		return fmt.Errorf("%s: %w", f[0], err)
	}
	if d < 0 {
		return fmt.Errorf("%s: negative duration", f[0])
	}
	*dst = d
	return nil
}

// parseDist parses `fixed <d>`, `uniform <lo> <hi>`, or `exp <mean>`.
func parseDist(f []string) (Dist, error) {
	if len(f) == 0 {
		return Dist{}, fmt.Errorf("expected a distribution")
	}
	switch f[0] {
	case "fixed":
		if len(f) != 2 {
			return Dist{}, fmt.Errorf("expected `fixed <duration>`")
		}
		a, err := time.ParseDuration(f[1])
		if err != nil {
			return Dist{}, err
		}
		return Dist{Kind: DistFixed, A: a}, nil
	case "uniform":
		if len(f) != 3 {
			return Dist{}, fmt.Errorf("expected `uniform <lo> <hi>`")
		}
		a, err := time.ParseDuration(f[1])
		if err != nil {
			return Dist{}, err
		}
		b, err := time.ParseDuration(f[2])
		if err != nil {
			return Dist{}, err
		}
		return Dist{Kind: DistUniform, A: a, B: b}, nil
	case "exp":
		if len(f) != 2 {
			return Dist{}, fmt.Errorf("expected `exp <mean>`")
		}
		a, err := time.ParseDuration(f[1])
		if err != nil {
			return Dist{}, err
		}
		return Dist{Kind: DistExp, A: a}, nil
	}
	return Dist{}, fmt.Errorf("unknown distribution %q", f[0])
}

// parseArrival parses the tokens after `arrival`.
func parseArrival(f []string) (Arrival, error) {
	if len(f) == 0 {
		return Arrival{}, fmt.Errorf("expected an arrival process")
	}
	switch f[0] {
	case "closed":
		if len(f) != 1 {
			return Arrival{}, fmt.Errorf("`arrival closed` takes no arguments")
		}
		return Arrival{Kind: ArrivalClosed}, nil
	case "poisson":
		if len(f) != 2 {
			return Arrival{}, fmt.Errorf("expected `arrival poisson <mean-gap>`")
		}
		mean, err := time.ParseDuration(f[1])
		if err != nil {
			return Arrival{}, err
		}
		return Arrival{Kind: ArrivalPoisson, Mean: mean}, nil
	case "stepped":
		if len(f) < 3 {
			return Arrival{}, fmt.Errorf("expected `arrival stepped <step> c1 [c2 ...]`")
		}
		step, err := time.ParseDuration(f[1])
		if err != nil {
			return Arrival{}, err
		}
		counts := make([]int, 0, len(f)-2)
		for _, tok := range f[2:] {
			c, err := strconv.Atoi(tok)
			if err != nil {
				return Arrival{}, fmt.Errorf("step count %q: %w", tok, err)
			}
			counts = append(counts, c)
		}
		return Arrival{Kind: ArrivalStepped, Step: step, Counts: counts}, nil
	}
	return Arrival{}, fmt.Errorf("unknown arrival process %q", f[0])
}

// parseAssert parses the tokens after `assert`.
func parseAssert(f []string) (Assert, error) {
	if len(f) == 0 {
		return Assert{}, fmt.Errorf("expected an assertion")
	}
	switch f[0] {
	case "no-lost-grant":
		if len(f) != 1 {
			return Assert{}, fmt.Errorf("`assert no-lost-grant` takes no arguments")
		}
		return Assert{Kind: AssertNoLostGrant}, nil
	case "jain-hold", "max-share":
		op := ">="
		kind := AssertJainHold
		if f[0] == "max-share" {
			op, kind = "<=", AssertMaxShare
		}
		if len(f) != 3 || f[1] != op {
			return Assert{}, fmt.Errorf("expected `assert %s %s <float>`", f[0], op)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return Assert{}, fmt.Errorf("%s: %w", f[0], err)
		}
		if v < 0 || v > 1 {
			return Assert{}, fmt.Errorf("%s: value must be in [0, 1]", f[0])
		}
		return Assert{Kind: kind, Value: v}, nil
	case "grants", "timeouts":
		op := ">="
		kind := AssertGrants
		if f[0] == "timeouts" {
			op, kind = "<=", AssertTimeouts
		}
		if len(f) != 3 || f[1] != op {
			return Assert{}, fmt.Errorf("expected `assert %s %s <int>`", f[0], op)
		}
		n, err := strconv.Atoi(f[2])
		if err != nil {
			return Assert{}, fmt.Errorf("%s: %w", f[0], err)
		}
		if n < 0 {
			return Assert{}, fmt.Errorf("%s: value must be >= 0", f[0])
		}
		return Assert{Kind: kind, N: n}, nil
	}
	return Assert{}, fmt.Errorf("unknown assertion %q", f[0])
}

func parseInt64(s string) (int64, error) {
	return strconv.ParseInt(s, 10, 64)
}
