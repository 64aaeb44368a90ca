package spec

import (
	"fmt"
	"sort"

	"iselgen/internal/term"
)

// EffectKind classifies instruction effects (paper §IV-A: each effect of
// an instruction is modeled as a separate bitvector term).
type EffectKind int

// Effect kinds.
const (
	EffReg  EffectKind = iota // destination register write ("rd", "rd2")
	EffWB                     // write-back to a register operand
	EffFlag                   // condition flag write (N/Z/C/V)
	EffPC                     // program-counter update
	EffMem                    // memory store (term root is Store)
)

func (k EffectKind) String() string {
	switch k {
	case EffReg:
		return "reg"
	case EffWB:
		return "writeback"
	case EffFlag:
		return "flag"
	case EffPC:
		return "pc"
	default:
		return "mem"
	}
}

// Effect is one effect of an instruction.
type Effect struct {
	Kind EffectKind
	Dest string // "rd"/"rd2", operand name, flag letter; "" for PC/mem
	T    *term.Term
}

// Sem is the symbolic semantics of one instruction: its operand list and
// effect terms. Operand variables are named prefix+operandName; the
// implicit PC input is prefix+"pc" and flag inputs prefix+"N" etc., so
// that sequence composition can wire effects by rebuilding variables.
type Sem struct {
	Name     string
	Operands []Operand
	Effects  []Effect
	// Prefix is the variable-name prefix the semantics were built with.
	Prefix string
}

// FlagNames lists the condition flags in canonical order.
var FlagNames = []string{"N", "Z", "C", "V"}

// Symbolize symbolically executes one instruction definition, producing
// its effect terms in builder b with the given variable-name prefix.
func Symbolize(inst *InstDef, b *term.Builder, prefix string) (*Sem, error) {
	ex := &executor{
		b:      b,
		inst:   inst,
		prefix: prefix,
		st: &state{
			vals: map[string]*term.Term{},
			eff:  map[string]*term.Term{},
		},
	}
	for _, op := range inst.Operands {
		var kind term.VarKind
		switch op.Kind {
		case OpReg:
			kind = term.KindReg
		case OpVec:
			kind = term.KindVecReg
		case OpImm:
			kind = term.KindImm
		}
		ex.st.vals[op.Name] = b.VarT(prefix+op.Name, kind, op.Width)
	}
	if err := ex.execBlock(ex.st, inst.Body); err != nil {
		return nil, err
	}
	sem := &Sem{Name: inst.Name, Operands: inst.Operands, Prefix: prefix}
	// Deterministic effect order: rd, rd2, write-backs (operand order),
	// flags (NZCV), pc, stores.
	if t, ok := ex.st.eff["rd"]; ok {
		sem.Effects = append(sem.Effects, Effect{Kind: EffReg, Dest: "rd", T: t})
	}
	if t, ok := ex.st.eff["rd2"]; ok {
		sem.Effects = append(sem.Effects, Effect{Kind: EffReg, Dest: "rd2", T: t})
	}
	for _, op := range inst.Operands {
		if t, ok := ex.st.eff["wb:"+op.Name]; ok {
			sem.Effects = append(sem.Effects, Effect{Kind: EffWB, Dest: op.Name, T: t})
		}
	}
	for _, f := range FlagNames {
		if t, ok := ex.st.eff["flag:"+f]; ok {
			sem.Effects = append(sem.Effects, Effect{Kind: EffFlag, Dest: f, T: t})
		}
	}
	if t, ok := ex.st.eff["pc"]; ok {
		sem.Effects = append(sem.Effects, Effect{Kind: EffPC, T: t})
	}
	sem.Effects = append(sem.Effects, ex.st.mems...)
	if len(sem.Effects) == 0 {
		return nil, fmt.Errorf("spec: instruction %s has no effects", inst.Name)
	}
	return sem, nil
}

type state struct {
	vals map[string]*term.Term // operands and let-bindings
	eff  map[string]*term.Term // keyed effects
	mems []Effect              // store effects in program order
}

func (s *state) clone() *state {
	ns := &state{
		vals: make(map[string]*term.Term, len(s.vals)),
		eff:  make(map[string]*term.Term, len(s.eff)),
		mems: append([]Effect(nil), s.mems...),
	}
	for k, v := range s.vals {
		ns.vals[k] = v
	}
	for k, v := range s.eff {
		ns.eff[k] = v
	}
	return ns
}

type executor struct {
	b      *term.Builder
	inst   *InstDef
	prefix string
	st     *state
}

func (ex *executor) errf(line int, format string, args ...any) error {
	return fmt.Errorf("spec:%d: %s: %s", line, ex.inst.Name, fmt.Sprintf(format, args...))
}

func (ex *executor) pcVar() *term.Term {
	return ex.b.VarT(ex.prefix+"pc", term.KindPC, 64)
}

func (ex *executor) flagVar(f string) *term.Term {
	return ex.b.VarT(ex.prefix+f, term.KindFlag, 1)
}

func (ex *executor) execBlock(st *state, stmts []Stmt) error {
	for _, s := range stmts {
		if err := ex.execStmt(st, s); err != nil {
			return err
		}
	}
	return nil
}

func (ex *executor) execStmt(st *state, s Stmt) error {
	switch s := s.(type) {
	case *LetStmt:
		t, err := ex.eval(st, s.X, 0)
		if err != nil {
			return err
		}
		st.vals[s.Name] = t
		return nil

	case *AssignStmt:
		return ex.execAssign(st, s)

	case *FlagStmt:
		t, err := ex.eval(st, s.X, 1)
		if err != nil {
			return err
		}
		if t.W() != 1 {
			return ex.errf(s.Line, "flag value must be 1 bit, got %d", t.W())
		}
		st.eff["flag:"+s.Flag] = t
		return nil

	case *MemStmt:
		addr, err := ex.eval(st, s.Addr, 64)
		if err != nil {
			return err
		}
		if addr.W() != 64 {
			return ex.errf(s.Line, "store address must be 64 bits, got %d", addr.W())
		}
		val, err := ex.eval(st, s.X, s.Width)
		if err != nil {
			return err
		}
		if val.W() != s.Width {
			return ex.errf(s.Line, "store value width %d, declared %d", val.W(), s.Width)
		}
		st.mems = append(st.mems, Effect{Kind: EffMem, T: ex.b.Store(addr, val)})
		return nil

	case *IfStmt:
		return ex.execIf(st, s)
	}
	return fmt.Errorf("spec: unknown statement %T", s)
}

func (ex *executor) execAssign(st *state, s *AssignStmt) error {
	switch s.Target {
	case "pc":
		t, err := ex.eval(st, s.X, 64)
		if err != nil {
			return err
		}
		if t.W() != 64 {
			return ex.errf(s.Line, "pc value must be 64 bits, got %d", t.W())
		}
		st.eff["pc"] = t
		return nil
	case "rd", "rd2":
		t, err := ex.eval(st, s.X, 0)
		if err != nil {
			return err
		}
		st.eff[s.Target] = t
		return nil
	}
	// Re-assignment of a let-binding (mutable locals inside branches).
	isOperand := false
	for _, op := range ex.inst.Operands {
		if op.Name == s.Target {
			isOperand = true
		}
	}
	if old, ok := st.vals[s.Target]; ok && !isOperand {
		t, err := ex.eval(st, s.X, old.W())
		if err != nil {
			return err
		}
		st.vals[s.Target] = t
		return nil
	}
	// Write-back to a declared register operand.
	for _, op := range ex.inst.Operands {
		if op.Name == s.Target {
			if op.Kind == OpImm {
				return ex.errf(s.Line, "cannot assign to immediate operand %s", s.Target)
			}
			t, err := ex.eval(st, s.X, op.Width)
			if err != nil {
				return err
			}
			if t.W() != op.Width {
				return ex.errf(s.Line, "write-back width %d to %d-bit operand %s",
					t.W(), op.Width, s.Target)
			}
			st.eff["wb:"+s.Target] = t
			return nil
		}
	}
	return ex.errf(s.Line, "unknown assignment target %q", s.Target)
}

// execIf runs both branches on state copies and joins the writes with
// ite terms — the symbolic-execution treatment of control flow.
func (ex *executor) execIf(st *state, s *IfStmt) error {
	cond, err := ex.eval(st, s.Cond, 1)
	if err != nil {
		return err
	}
	cond = ex.b.Bool(cond)
	thenSt := st.clone()
	elseSt := st.clone()
	if err := ex.execBlock(thenSt, s.Then); err != nil {
		return err
	}
	if err := ex.execBlock(elseSt, s.Else); err != nil {
		return err
	}
	// Join let-bindings.
	names := map[string]bool{}
	for n := range thenSt.vals {
		names[n] = true
	}
	for n := range elseSt.vals {
		names[n] = true
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		tv, tok := thenSt.vals[n]
		ev, eok := elseSt.vals[n]
		switch {
		case tok && eok:
			if tv != ev {
				if tv.W() != ev.W() {
					return ex.errf(s.Line, "branches bind %q at widths %d and %d", n, tv.W(), ev.W())
				}
				st.vals[n] = ex.b.Ite(cond, tv, ev)
			} else {
				st.vals[n] = tv
			}
		case tok:
			// Declared only in the then-branch: not visible after join.
			if _, outer := st.vals[n]; outer {
				st.vals[n] = tv
			}
		case eok:
			if _, outer := st.vals[n]; outer {
				st.vals[n] = ev
			}
		}
	}
	// Join effects.
	keys := map[string]bool{}
	for k := range thenSt.eff {
		keys[k] = true
	}
	for k := range elseSt.eff {
		keys[k] = true
	}
	var ekeys []string
	for k := range keys {
		ekeys = append(ekeys, k)
	}
	sort.Strings(ekeys)
	for _, k := range ekeys {
		tv, tok := thenSt.eff[k]
		ev, eok := elseSt.eff[k]
		switch {
		case tok && eok:
			if tv == ev {
				st.eff[k] = tv
			} else {
				st.eff[k] = ex.b.Ite(cond, tv, ev)
			}
		case tok || eok:
			v := tv
			if !tok {
				v = ev
			}
			if prev, ok := st.eff[k]; ok {
				// Previously assigned unconditionally; keep old value on
				// the untaken path.
				if tok {
					st.eff[k] = ex.b.Ite(cond, v, prev)
				} else {
					st.eff[k] = ex.b.Ite(cond, prev, v)
				}
			} else if k == "pc" {
				// A conditional branch falls through to the next
				// instruction: pc plus this instruction's encoded size
				// (4 when the spec declares no encoding).
				size := uint64(4)
				if ex.inst.Enc != nil {
					size = uint64(ex.inst.Enc.SizeBytes())
				}
				fall := ex.b.Add(ex.pcVar(), ex.b.Const(64, size))
				if tok {
					st.eff[k] = ex.b.Ite(cond, v, fall)
				} else {
					st.eff[k] = ex.b.Ite(cond, fall, v)
				}
			} else {
				return ex.errf(s.Line, "effect %q written in only one branch", k)
			}
		}
	}
	// Memory effects: both branches must store the same number of times;
	// matching stores join addr- and value-wise.
	if len(thenSt.mems) != len(elseSt.mems) {
		return ex.errf(s.Line, "conditional store in only one branch is unsupported")
	}
	for i := len(st.mems); i < len(thenSt.mems); i++ {
		tm, em := thenSt.mems[i].T, elseSt.mems[i].T
		if tm == em {
			st.mems = append(st.mems, thenSt.mems[i])
			continue
		}
		if tm.Aux0 != em.Aux0 {
			return ex.errf(s.Line, "conditional stores of different widths")
		}
		addr := ex.b.Ite(cond, tm.Args[0], em.Args[0])
		val := ex.b.Ite(cond, tm.Args[1], em.Args[1])
		st.mems = append(st.mems, Effect{Kind: EffMem, T: ex.b.Store(addr, val)})
	}
	return nil
}
