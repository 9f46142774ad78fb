//go:build !amd64

package nn

// Non-amd64 platforms always use the pure-Go scalar kernels.

var useASM = false

const noASM = "nn: no asm kernels on this platform"

func dotAsm(a, b []float64) float64                                 { panic(noASM) }
func dotRowsAsm(dst, w, x []float64, in int)                        { panic(noASM) }
func axpyRowsAsm(dst, x, d []float64, in, dstride, n int)           { panic(noASM) }
func tanhAsm(xs []float64)                                          { panic(noASM) }
func adamAsm(p, g, m, v []float64, lr, b1, b2, eps, c1, c2 float64) { panic(noASM) }
