//go:build !amd64

package nn

// Non-amd64 platforms always use the pure-Go scalar kernels.

var useASM = false

func dotAsm(a, b []float64) float64           { panic("nn: no asm kernels on this platform") }
func dotRowsAsm(dst, w, x []float64, in int)  { panic("nn: no asm kernels on this platform") }
func axpyAsm(dst, x []float64, alpha float64) { panic("nn: no asm kernels on this platform") }
func tanhAsm(xs []float64)                    { panic("nn: no asm kernels on this platform") }
