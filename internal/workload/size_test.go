package workload

import (
	"debug/elf"
	"debug/gosym"
	"os"
	"strings"
	"testing"
)

// kernelCodeCeiling bounds the machine code of the kernel builders.
// With asm's emit out of line they compile to about 62 KB (80 KB under
// -race, 67 KB under -cover); with emit inlined into each of their
// ~830 emitter calls they took 487 KB.
const kernelCodeCeiling = 128 << 10

// TestKernelBuildersCompact sums the machine code of the kernel
// builders (every watchdog/internal/workload.build* function and its
// closures) from this test binary's own pclntab, which go test keeps
// when it strips the symbol table. The builders run once per program,
// so their code only costs resident memory; an emitter that inlines
// its append again shows up here first.
func TestKernelBuildersCompact(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no path to the test binary: %v", err)
	}
	f, err := elf.Open(exe)
	if err != nil {
		t.Skipf("test binary is not ELF: %v", err)
	}
	defer f.Close()
	text, pcln := f.Section(".text"), f.Section(".gopclntab")
	if text == nil || pcln == nil {
		t.Fatalf("test binary has no .text or .gopclntab section")
	}
	data, err := pcln.Data()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := gosym.NewTable(nil, gosym.NewLineTable(data, text.Addr))
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "watchdog/internal/workload.build"
	var total uint64
	funcs := 0
	for _, fn := range tab.Funcs {
		if strings.HasPrefix(fn.Name, prefix) {
			total += fn.End - fn.Entry
			funcs++
		}
	}
	if funcs < len(All()) {
		t.Fatalf("found %d %s* functions, fewer than the %d kernels", funcs, prefix, len(All()))
	}
	t.Logf("%d kernel builder functions, %d bytes of machine code", funcs, total)
	if total > kernelCodeCeiling {
		t.Fatalf("kernel builders take %d bytes of machine code, want at most %d", total, kernelCodeCeiling)
	}
}
