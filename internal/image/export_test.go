package image

import (
	"fmt"
	"strings"

	"mst/internal/compiler"
	"mst/internal/interp"
)

// CompileChunks reads source as FileIn does and compiles every chunk
// against vm, installing nothing: an expression chunk as a DoIt, a method
// chunk against its methodsFor: section's class. vm must already define
// the classes the source names.
func CompileChunks(vm *interp.VM, source string, each func(*compiler.Method, error)) error {
	r := newChunkReader(source)
	for {
		chunk, command, ok := r.next()
		if !ok {
			return nil
		}
		header := strings.TrimSpace(chunk)
		if header == "" {
			continue
		}
		if !command {
			each(compiler.CompileExpression(header, vm.EnvForClass(vm.Specials.UndefinedObject)))
			continue
		}
		class, _, err := parseMethodsFor(vm, header)
		if err != nil {
			return err
		}
		for {
			chunk, ok := r.nextRaw()
			if !ok {
				return fmt.Errorf("unterminated methodsFor: %q", header)
			}
			body := strings.TrimSpace(chunk)
			if body == "" {
				break
			}
			each(compiler.CompileMethod(body, vm.EnvForClass(class)))
		}
	}
}
