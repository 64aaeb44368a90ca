package canon

import (
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/term"
)

// Eval evaluates the canonical term under env (the same environment type
// used for the original terms): the property tests assert with it that
// canonicalization preserves semantics.
func (c *CTerm) Eval(env *term.Env) bv.BV {
	memo := make(map[*CTerm]bv.BV, 8)
	return c.eval(env, memo)
}

func (c *CTerm) eval(env *term.Env, memo map[*CTerm]bv.BV) bv.BV {
	if v, ok := memo[c]; ok {
		return v
	}
	var r bv.BV
	switch c.Kind {
	case Atom:
		v, ok := env.Vals[c.Var.Name]
		if !ok {
			panic(fmt.Sprintf("canon: unbound variable %q", c.Var.Name))
		}
		r = v

	case Lin:
		r = c.K
		for _, a := range c.Addends {
			v := a.T.eval(env, memo).ZExt(c.Width)
			r = r.Add(a.Coef.Mul(v))
		}

	case OpNode:
		arg := func(i int) bv.BV { return c.Args[i].eval(env, memo) }
		switch c.Op {
		case term.Mul:
			// Distributed products may have narrower operands, which are
			// implicitly zero-extended.
			r = arg(0).ZExt(c.Width).Mul(arg(1).ZExt(c.Width))
		case term.UDiv:
			r = arg(0).UDiv(arg(1))
		case term.SDiv:
			r = arg(0).SDiv(arg(1))
		case term.URem:
			r = arg(0).URem(arg(1))
		case term.SRem:
			r = arg(0).SRem(arg(1))
		case term.And:
			r = arg(0).And(arg(1))
		case term.Or:
			r = arg(0).Or(arg(1))
		case term.Xor:
			r = arg(0).Xor(arg(1))
		case term.Shl:
			r = arg(0).Shl(arg(1))
		case term.LShr:
			r = arg(0).LShr(arg(1))
		case term.AShr:
			r = arg(0).AShr(arg(1))
		case term.RotL:
			r = arg(0).RotL(arg(1))
		case term.RotR:
			r = arg(0).RotR(arg(1))
		case term.Eq:
			r = bv.NewBool(arg(0).Eq(arg(1)))
		case term.Ult:
			r = bv.NewBool(arg(0).Ult(arg(1)))
		case term.Slt:
			r = bv.NewBool(arg(0).Slt(arg(1)))
		case term.Extract:
			r = arg(0).Extract(int(c.Aux0), int(c.Aux1))
		case term.Ite:
			if arg(0).Bool() {
				r = arg(1)
			} else {
				r = arg(2)
			}
		case term.Load:
			r = term.MemValue(arg(0).Uint64(), c.Width)
		case term.Store:
			addr := arg(0)
			val := arg(1)
			r = term.StoreDigest(addr.Uint64(), val, c.Width)
		case term.Popcount:
			r = arg(0).Popcount()
		case term.Clz:
			r = arg(0).Clz()
		case term.Ctz:
			r = arg(0).Ctz()
		case term.Rev:
			r = arg(0).Rev()
		default:
			panic(fmt.Sprintf("canon: eval of op %v", c.Op))
		}
	}
	if r.W() != c.Width {
		panic(fmt.Sprintf("canon: eval width %d for term of width %d", r.W(), c.Width))
	}
	memo[c] = r
	return r
}
