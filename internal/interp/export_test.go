package interp

// DropDoItMemo empties the doIt memo, for the external twin test that
// holds a memoizing system against one that compiles every request.
func (vm *VM) DropDoItMemo() { clear(vm.doits) }

// DoItMemoLen reports how many compiled doIts the VM holds.
func (vm *VM) DoItMemoLen() int { return len(vm.doits) }
