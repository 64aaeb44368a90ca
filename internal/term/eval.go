package term

import (
	"fmt"

	"iselgen/internal/bv"
)

// Env supplies concrete values for the free variables of a term during
// test-input evaluation (paper §V-C).
//
// Loads are evaluated against a fixed pseudo-random memory: the value
// loaded from address a is a deterministic hash of (a, width). This makes
// two terms that load from provably-equal addresses evaluate equal, while
// terms that load from different addresses almost surely differ — exactly
// the discrimination needed to probe candidate matches. A Store effect
// evaluates to a hash of (address, value, width) so that store effects
// can be compared by their sample evaluations too.
type Env struct {
	Vals map[string]bv.BV
	// Mem, when non-nil, replaces the hash-based memory model for Load
	// terms. Store terms still evaluate to a digest; executors handle
	// store effects by evaluating the address and value subterms
	// explicitly.
	Mem MemModel
}

// MemModel supplies load values during evaluation (Env.Mem, and the
// mem argument of Program.RunIn, through which the machine simulator and
// the emulator read their real memory).
type MemModel interface {
	Load(addr uint64, bits int) bv.BV
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{Vals: make(map[string]bv.BV)} }

// Bind assigns a value to a variable name.
func (e *Env) Bind(name string, v bv.BV) { e.Vals[name] = v }

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// MemValue is the deterministic pseudo-random memory model: the `width`
// bits stored at address addr.
func MemValue(addr uint64, width int) bv.BV {
	lo := mix64(addr ^ 0x9e3779b97f4a7c15 ^ uint64(width))
	hi := mix64(lo + 0x632be59bd9b4e019)
	return bv.New128(width, hi, lo)
}

// StoreDigest summarizes a store effect for evaluation-based comparison.
func StoreDigest(addr uint64, val bv.BV, width int) bv.BV {
	h := mix64(addr) ^ mix64(val.Lo+0x100) ^ mix64(val.Hi+uint64(width)<<32)
	return bv.New128(width, mix64(h+1), h)
}

// Eval evaluates t under env. It panics if a variable is unbound; callers
// enumerate Vars() first and bind every one.
func (t *Term) Eval(env *Env) bv.BV {
	memo := make(map[*Term]bv.BV, 16)
	return t.eval(env, memo)
}

// EvalMemo is Eval with a memo the caller keeps across calls, so terms
// evaluated one after another share the values of their common
// subterms. Every call with one memo must pass an env that binds each
// name to the same value.
func (t *Term) EvalMemo(env *Env, memo map[*Term]bv.BV) bv.BV { return t.eval(env, memo) }

func (t *Term) eval(env *Env, memo map[*Term]bv.BV) bv.BV {
	if v, ok := memo[t]; ok {
		return v
	}
	var r bv.BV
	arg := func(i int) bv.BV { return t.Args[i].eval(env, memo) }
	switch t.Op {
	case Const:
		r = t.CVal
	case Var:
		v, ok := env.Vals[t.Name]
		if !ok {
			panic(fmt.Sprintf("term: unbound variable %q", t.Name))
		}
		if v.W() != t.W() {
			panic(fmt.Sprintf("term: variable %q bound at width %d, term width %d",
				t.Name, v.W(), t.W()))
		}
		r = v
	case Add:
		r = arg(0).Add(arg(1))
	case Sub:
		r = arg(0).Sub(arg(1))
	case Mul:
		r = arg(0).Mul(arg(1))
	case UDiv:
		r = arg(0).UDiv(arg(1))
	case SDiv:
		r = arg(0).SDiv(arg(1))
	case URem:
		r = arg(0).URem(arg(1))
	case SRem:
		r = arg(0).SRem(arg(1))
	case Neg:
		r = arg(0).Neg()
	case Not:
		r = arg(0).Not()
	case And:
		r = arg(0).And(arg(1))
	case Or:
		r = arg(0).Or(arg(1))
	case Xor:
		r = arg(0).Xor(arg(1))
	case Shl:
		r = arg(0).Shl(arg(1))
	case LShr:
		r = arg(0).LShr(arg(1))
	case AShr:
		r = arg(0).AShr(arg(1))
	case RotL:
		r = arg(0).RotL(arg(1))
	case RotR:
		r = arg(0).RotR(arg(1))
	case Eq:
		r = bv.NewBool(arg(0).Eq(arg(1)))
	case Ult:
		r = bv.NewBool(arg(0).Ult(arg(1)))
	case Slt:
		r = bv.NewBool(arg(0).Slt(arg(1)))
	case Concat:
		r = arg(0).Concat(arg(1))
	case Extract:
		r = arg(0).Extract(int(t.Aux0), int(t.Aux1))
	case ZExt:
		r = arg(0).ZExt(t.W())
	case SExt:
		r = arg(0).SExt(t.W())
	case Ite:
		if arg(0).Bool() {
			r = arg(1)
		} else {
			r = arg(2)
		}
	case Load:
		if env.Mem != nil {
			r = env.Mem.Load(arg(0).Uint64(), t.W())
		} else {
			r = MemValue(arg(0).Uint64(), t.W())
		}
	case Store:
		r = StoreDigest(arg(0).Uint64(), arg(1), t.W())
	case Popcount:
		r = arg(0).Popcount()
	case Clz:
		r = arg(0).Clz()
	case Ctz:
		r = arg(0).Ctz()
	case Rev:
		r = arg(0).Rev()
	default:
		panic(fmt.Sprintf("term: eval of %v", t.Op))
	}
	memo[t] = r
	return r
}
