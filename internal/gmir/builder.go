package gmir

import (
	"fmt"

	"iselgen/internal/bv"
)

// FuncBuilder constructs Functions with SSA bookkeeping.
type FuncBuilder struct {
	f   *Function
	cur *Block
}

// NewFunc starts building a function.
func NewFunc(name string) *FuncBuilder {
	f := &Function{Name: name, types: map[Value]Type{}}
	fb := &FuncBuilder{f: f}
	fb.cur = fb.NewBlock()
	return fb
}

// Param adds a function parameter.
func (fb *FuncBuilder) Param(ty Type) Value {
	v := fb.newValue(ty)
	fb.f.Params = append(fb.f.Params, Param{Val: v, Ty: ty})
	return v
}

// NewBlock appends a new basic block (does not switch to it).
func (fb *FuncBuilder) NewBlock() *Block {
	b := &Block{ID: len(fb.f.Blocks)}
	fb.f.Blocks = append(fb.f.Blocks, b)
	return b
}

// SetBlock switches the insertion point.
func (fb *FuncBuilder) SetBlock(b *Block) { fb.cur = b }

// Block returns the current insertion block.
func (fb *FuncBuilder) Block() *Block { return fb.cur }

// Finish verifies and returns the function.
func (fb *FuncBuilder) Finish() (*Function, error) {
	if err := Verify(fb.f); err != nil {
		return nil, err
	}
	return fb.f, nil
}

// MustFinish is Finish that panics on a verifier error (for tests and
// statically-known-correct builders).
func (fb *FuncBuilder) MustFinish() *Function {
	f, err := fb.Finish()
	if err != nil {
		panic(err)
	}
	return f
}

func (fb *FuncBuilder) newValue(ty Type) Value {
	v := Value(fb.f.NumValues)
	fb.f.NumValues++
	fb.f.types[v] = ty
	return v
}

func (fb *FuncBuilder) emit(in *Inst) Value {
	fb.cur.Insts = append(fb.cur.Insts, in)
	return in.Dst
}

func (fb *FuncBuilder) tyOf(v Value) Type {
	ty, ok := fb.f.types[v]
	if !ok {
		panic(fmt.Sprintf("gmir: unknown value %%%d", v))
	}
	return ty
}

// Binary emits a two-operand operation whose operands and result share
// one type.
func (fb *FuncBuilder) Binary(op Opcode, x, y Value) Value {
	tx, ty := fb.tyOf(x), fb.tyOf(y)
	if tx != ty {
		panic(fmt.Sprintf("gmir: %v operand types %v vs %v", op, tx, ty))
	}
	dst := fb.newValue(tx)
	fb.emit(&Inst{Op: op, Ty: tx, Dst: dst, Args: []Value{x, y}})
	return dst
}

// Const materializes a constant.
func (fb *FuncBuilder) Const(ty Type, v uint64) Value {
	return fb.ConstBV(bv.New(ty.Bits, v))
}

// ConstInt materializes a signed constant.
func (fb *FuncBuilder) ConstInt(ty Type, v int64) Value {
	return fb.ConstBV(bv.NewInt(ty.Bits, v))
}

// ConstBV materializes a constant from a bitvector value.
func (fb *FuncBuilder) ConstBV(v bv.BV) Value {
	dst := fb.newValue(Type{v.W()})
	fb.emit(&Inst{Op: GConstant, Ty: Type{v.W()}, Dst: dst, Imm: v})
	return dst
}

// Binary operations.
func (fb *FuncBuilder) Add(x, y Value) Value  { return fb.Binary(GAdd, x, y) }
func (fb *FuncBuilder) Sub(x, y Value) Value  { return fb.Binary(GSub, x, y) }
func (fb *FuncBuilder) Mul(x, y Value) Value  { return fb.Binary(GMul, x, y) }
func (fb *FuncBuilder) UDiv(x, y Value) Value { return fb.Binary(GUDiv, x, y) }
func (fb *FuncBuilder) SDiv(x, y Value) Value { return fb.Binary(GSDiv, x, y) }
func (fb *FuncBuilder) URem(x, y Value) Value { return fb.Binary(GURem, x, y) }
func (fb *FuncBuilder) SRem(x, y Value) Value { return fb.Binary(GSRem, x, y) }
func (fb *FuncBuilder) And(x, y Value) Value  { return fb.Binary(GAnd, x, y) }
func (fb *FuncBuilder) Or(x, y Value) Value   { return fb.Binary(GOr, x, y) }
func (fb *FuncBuilder) Xor(x, y Value) Value  { return fb.Binary(GXor, x, y) }
func (fb *FuncBuilder) Shl(x, y Value) Value  { return fb.Binary(GShl, x, y) }
func (fb *FuncBuilder) LShr(x, y Value) Value { return fb.Binary(GLShr, x, y) }
func (fb *FuncBuilder) AShr(x, y Value) Value { return fb.Binary(GAShr, x, y) }
func (fb *FuncBuilder) UMin(x, y Value) Value { return fb.Binary(GUMin, x, y) }

// PtrAdd offsets a pointer by an s64 index.
func (fb *FuncBuilder) PtrAdd(p, off Value) Value { return fb.Binary(GPtrAdd, p, off) }

// ICmp compares two values, yielding s1.
func (fb *FuncBuilder) ICmp(pred Pred, x, y Value) Value {
	if fb.tyOf(x) != fb.tyOf(y) {
		panic("gmir: icmp operand types differ")
	}
	dst := fb.newValue(S1)
	fb.emit(&Inst{Op: GICmp, Ty: S1, Dst: dst, Pred: pred, Args: []Value{x, y}})
	return dst
}

// Select chooses between two values by an s1 condition.
func (fb *FuncBuilder) Select(c, x, y Value) Value {
	if fb.tyOf(c) != S1 {
		panic("gmir: select condition must be s1")
	}
	if fb.tyOf(x) != fb.tyOf(y) {
		panic("gmir: select arm types differ")
	}
	dst := fb.newValue(fb.tyOf(x))
	fb.emit(&Inst{Op: GSelect, Ty: fb.tyOf(x), Dst: dst, Args: []Value{c, x, y}})
	return dst
}

func (fb *FuncBuilder) ext(op Opcode, ty Type, x Value) Value {
	from := fb.tyOf(x)
	if (op == GTrunc && ty.Bits >= from.Bits) || (op != GTrunc && ty.Bits <= from.Bits) {
		panic(fmt.Sprintf("gmir: invalid %v %v -> %v", op, from, ty))
	}
	dst := fb.newValue(ty)
	fb.emit(&Inst{Op: op, Ty: ty, Dst: dst, Args: []Value{x}})
	return dst
}

// ZExt zero-extends.
func (fb *FuncBuilder) ZExt(ty Type, x Value) Value { return fb.ext(GZExt, ty, x) }

// SExt sign-extends.
func (fb *FuncBuilder) SExt(ty Type, x Value) Value { return fb.ext(GSExt, ty, x) }

// Trunc truncates.
func (fb *FuncBuilder) Trunc(ty Type, x Value) Value { return fb.ext(GTrunc, ty, x) }

// Unary emits a one-operand operation whose result has the operand's
// type.
func (fb *FuncBuilder) Unary(op Opcode, x Value) Value {
	dst := fb.newValue(fb.tyOf(x))
	fb.emit(&Inst{Op: op, Ty: fb.tyOf(x), Dst: dst, Args: []Value{x}})
	return dst
}

func (fb *FuncBuilder) Abs(x Value) Value { return fb.Unary(GAbs, x) }

// Load loads memBits from p, zero-extending into ty.
func (fb *FuncBuilder) Load(ty Type, p Value, memBits int) Value {
	return fb.load(GLoad, ty, p, memBits)
}

// SLoad loads memBits from p, sign-extending into ty.
func (fb *FuncBuilder) SLoad(ty Type, p Value, memBits int) Value {
	return fb.load(GSLoad, ty, p, memBits)
}

func (fb *FuncBuilder) load(op Opcode, ty Type, p Value, memBits int) Value {
	if fb.tyOf(p) != P0 {
		panic("gmir: load address must be a pointer")
	}
	if memBits > ty.Bits {
		panic("gmir: load size exceeds result type")
	}
	dst := fb.newValue(ty)
	fb.emit(&Inst{Op: op, Ty: ty, Dst: dst, Args: []Value{p}, MemBits: memBits})
	return dst
}

// Store stores the low memBits of v to p.
func (fb *FuncBuilder) Store(v, p Value, memBits int) {
	if fb.tyOf(p) != P0 {
		panic("gmir: store address must be a pointer")
	}
	if memBits > fb.tyOf(v).Bits {
		panic("gmir: store size exceeds value type")
	}
	fb.emit(&Inst{Op: GStore, Dst: -1, Args: []Value{v, p}, MemBits: memBits})
}

// Br branches unconditionally.
func (fb *FuncBuilder) Br(target *Block) {
	fb.emit(&Inst{Op: GBr, Dst: -1, Succs: []int{target.ID}})
}

// BrCond branches to taken when c is nonzero, else to fallthrough.
func (fb *FuncBuilder) BrCond(c Value, taken, fallthrough_ *Block) {
	if fb.tyOf(c) != S1 {
		panic("gmir: brcond condition must be s1")
	}
	fb.emit(&Inst{Op: GBrCond, Dst: -1, Args: []Value{c}, Succs: []int{taken.ID, fallthrough_.ID}})
}

// Phi creates a phi node; incoming pairs are (value, predecessor block).
func (fb *FuncBuilder) Phi(ty Type, incoming ...any) Value {
	if len(incoming)%2 != 0 {
		panic("gmir: phi needs (value, block) pairs")
	}
	in := &Inst{Op: GPhi, Ty: ty, Dst: fb.newValue(ty)}
	for i := 0; i < len(incoming); i += 2 {
		in.Args = append(in.Args, incoming[i].(Value))
		in.PhiBlocks = append(in.PhiBlocks, incoming[i+1].(*Block).ID)
	}
	fb.emit(in)
	return in.Dst
}

// AddPhiIncoming appends an incoming edge to an existing phi.
func (fb *FuncBuilder) AddPhiIncoming(phi Value, v Value, from *Block) {
	for _, b := range fb.f.Blocks {
		for _, in := range b.Insts {
			if in.Op == GPhi && in.Dst == phi {
				in.Args = append(in.Args, v)
				in.PhiBlocks = append(in.PhiBlocks, from.ID)
				return
			}
		}
	}
	panic("gmir: phi not found")
}

// Ret returns a value (or nothing with v < 0).
func (fb *FuncBuilder) Ret(v Value) {
	in := &Inst{Op: GRet, Dst: -1}
	if v >= 0 {
		in.Args = []Value{v}
		fb.f.RetTy = fb.tyOf(v)
	}
	fb.emit(in)
}
