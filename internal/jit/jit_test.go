package jit

import (
	"testing"

	"mst/internal/bytecode"
	"mst/internal/firefly"
)

// assemble builds a small method body covering every operand shape.
func assemble() []byte {
	var a bytecode.Assembler
	a.Emit(bytecode.OpPushSelf)           // pc 0
	a.EmitU8(bytecode.OpPushTemp, 3)      // pc 1
	a.EmitI8(bytecode.OpPushInt8, -7)     // pc 3
	a.Emit(bytecode.OpSendAdd)            // pc 5
	p := a.EmitJump(bytecode.OpJumpFalse) // pc 6
	a.EmitSend(bytecode.OpSend, 2, 1)     // pc 9
	a.PatchJump(p)                        // jumpFalse lands here (pc 12)
	bp := a.EmitPushBlock(1, 0)           // pc 12
	a.Emit(bytecode.OpBlockReturn)        // pc 17 (block body)
	a.PatchBlock(bp)                      // body ends at pc 18
	a.Emit(bytecode.OpPushThisContext)    // pc 18
	a.Emit(bytecode.OpReturnTop)          // pc 19
	return a.Code()
}

func TestCompileDecodesOperandsAndTargets(t *testing.T) {
	code := assemble()
	p, err := Compile(code)
	if err != nil {
		t.Fatal(err)
	}
	if p.CodeLen != len(code) {
		t.Errorf("CodeLen = %d, want %d", p.CodeLen, len(code))
	}
	byPC := map[int]Instr{}
	for _, ins := range p.Instrs {
		byPC[ins.PC] = ins
	}
	if ins := byPC[1]; ins.Op != bytecode.OpPushTemp || ins.A != 3 || ins.Next != 3 {
		t.Errorf("pushTemp decoded as %+v", ins)
	}
	if ins := byPC[3]; ins.Op != bytecode.OpPushInt8 || ins.A != -7 {
		t.Errorf("pushInt8 decoded as %+v", ins)
	}
	if ins := byPC[6]; ins.Op != bytecode.OpJumpFalse || ins.Target != 12 {
		t.Errorf("jumpFalse decoded as %+v (want target 12)", ins)
	}
	if ins := byPC[9]; ins.Op != bytecode.OpSend || ins.A != 2 || ins.B != 1 {
		t.Errorf("send decoded as %+v", ins)
	}
	if ins := byPC[12]; ins.Op != bytecode.OpPushBlock || ins.A != 1 || ins.B != 0 || ins.Target != 18 {
		t.Errorf("pushBlock decoded as %+v (want end pc 18)", ins)
	}
	if ins := byPC[18]; !ins.Uncommon {
		t.Errorf("pushThisContext not marked uncommon: %+v", ins)
	}
	// Instructions tile the code: each Next is the following PC.
	for i := 0; i+1 < len(p.Instrs); i++ {
		if p.Instrs[i].Next != p.Instrs[i+1].PC {
			t.Errorf("instr %d Next=%d but next instr at pc %d",
				i, p.Instrs[i].Next, p.Instrs[i+1].PC)
		}
	}
}

func TestCompileRejectsBadCode(t *testing.T) {
	cases := map[string][]byte{
		"unknown opcode":     {byte(bytecode.NumOps)},
		"truncated operand":  {byte(bytecode.OpPushTemp)},
		"truncated jump":     {byte(bytecode.OpJump), 0},
		"jump out of range":  {byte(bytecode.OpJump), 0x7F, 0xFF},
		"block past the end": {byte(bytecode.OpPushBlock), 0, 0, 0x10, 0x00},
	}
	for name, code := range cases {
		if _, err := Compile(code); err == nil {
			t.Errorf("%s: Compile accepted %v", name, code)
		}
	}
}

func TestSpecializeChargesFromCostTable(t *testing.T) {
	p, err := Compile(assemble())
	if err != nil {
		t.Fatal(err)
	}
	costs := firefly.DefaultCosts()
	p.Specialize(&costs)
	if p.DispatchCost != costs.Bytecode {
		t.Errorf("DispatchCost = %d, want cost-table Bytecode = %d", p.DispatchCost, costs.Bytecode)
	}
}
