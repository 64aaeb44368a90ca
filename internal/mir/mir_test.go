package mir

import (
	"strings"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/isa"
	"iselgen/internal/term"
)

func inst(t *testing.T) *isa.Instruction {
	t.Helper()
	b := term.NewBuilder()
	tgt, err := isa.LoadTarget(b, "m", `inst ADD(rn: reg64, rm: reg64) { rd = rn + rm; }`,
		map[string]int{"ADD": 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return tgt.ByName("ADD")
}

func TestSizeAndLatency(t *testing.T) {
	add := inst(t)
	in := &Inst{Meta: add, Dsts: []Reg{2}, Args: []Operand{R(0), R(1)}}
	if in.Size() != 4 || in.Latency() != 2 {
		t.Errorf("size=%d latency=%d", in.Size(), in.Latency())
	}
	cp := &Inst{Pseudo: PCopy, Dsts: []Reg{1}, Args: []Operand{R(0)}}
	if cp.Latency() != 1 {
		t.Errorf("copy latency = %d", cp.Latency())
	}
}

func TestFuncAccounting(t *testing.T) {
	add := inst(t)
	f := &Func{Name: "f", NumRegs: 3, Params: []Reg{0, 1}}
	f.Blocks = []*Block{
		{ID: 0, Insts: []*Inst{
			{Meta: add, Dsts: []Reg{2}, Args: []Operand{R(0), R(1)}},
			{Pseudo: PRet, Args: []Operand{R(2)}},
		}},
	}
	if f.NumInsts() != 2 {
		t.Errorf("insts = %d", f.NumInsts())
	}
	if f.BinarySize() != 8 {
		t.Errorf("size = %d", f.BinarySize())
	}
	r := f.NewReg()
	if r != 3 || f.NumRegs != 4 {
		t.Errorf("NewReg = %d, NumRegs = %d", r, f.NumRegs)
	}
	if f.BlockByID(0) == nil || f.BlockByID(5) != nil {
		t.Error("BlockByID lookup wrong")
	}
}

func TestString(t *testing.T) {
	add := inst(t)
	f := &Func{Name: "f"}
	f.Blocks = []*Block{{ID: 0, Insts: []*Inst{
		{Meta: add, Dsts: []Reg{2}, Args: []Operand{R(0), I(bv.New(12, 7))}, Succs: []int{3}},
		{Pseudo: PCopy, Dsts: []Reg{4}, Args: []Operand{R(2)}},
		{Pseudo: PRet},
	}}}
	s := f.String()
	for _, want := range []string{"%2 = ADD %0 #x007", "->bb3", "%4 = COPY %2", "RET"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// BlockByID finds a block.
func (f *Func) BlockByID(id int) *Block {
	for _, b := range f.Blocks {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// NumInsts counts instructions (pseudos included).
func (f *Func) NumInsts() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}
