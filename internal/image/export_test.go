package image

import (
	"mst/internal/compiler"
	"mst/internal/interp"
	"mst/internal/object"
)

// CompileChunks reads source as FileIn does and compiles every chunk
// against vm, installing nothing: an expression chunk as a DoIt, a method
// chunk against its methodsFor: section's class. vm must already define
// the classes the source names.
func CompileChunks(vm *interp.VM, source string, each func(*compiler.Method, error)) error {
	for _, s := range readPlan(source).(plan) {
		if s.header == "" {
			if s.err != nil {
				each(nil, s.err)
			} else {
				each(compiler.CompileExpression(s.body, vm.EnvForClass(vm.Specials.UndefinedObject)))
			}
			continue
		}
		class, _, err := parseMethodsFor(vm, s.header)
		if err != nil {
			return err
		}
		for _, m := range s.methods {
			each(compiler.CompileMethod(m.body, vm.EnvForClass(class)))
		}
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// parseMethodsFor reads a methodsFor: header and finds its class in vm.
func parseMethodsFor(vm *interp.VM, header string) (object.OOP, string, error) {
	name, meta, category, err := lexMethodsFor(header)
	if err != nil {
		return object.Nil, "", err
	}
	class, err := classNamed(vm, name, meta)
	return class, category, err
}
