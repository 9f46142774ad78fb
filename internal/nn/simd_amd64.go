package nn

// Runtime-dispatched SIMD kernels (see asm_amd64.s). useASM is fixed at
// process start, so every forward/backward in a process runs the same code
// path and results stay bit-deterministic.

// cpuHasAVX2FMA reports whether the CPU and OS support the AVX2+FMA kernels.
func cpuHasAVX2FMA() bool

// dotAsm returns the dot product over len(a) elements; the caller must
// guarantee len(b) >= len(a).
//
//go:noescape
func dotAsm(a, b []float64) float64

// dotRowsAsm sets dst[o] to dotAsm(w[o*in:o*in+in], x) for every o, bit for
// bit, two rows per pass; the caller must guarantee len(w) >= len(dst)*in
// and len(x) >= in.
//
//go:noescape
func dotRowsAsm(dst, w, x []float64, in int)

// axpyRowsAsm sets dst[i] = fma(d[k*dstride], x[k*in+i], dst[i]) for every
// i < len(dst) and k = 0..n-1 in order, skipping each k whose d is ±0 (but
// not NaN), with the dst tile held in registers across all k; the caller
// must guarantee len(x) >= (n-1)*in+len(dst) and len(d) > (n-1)*dstride.
//
//go:noescape
func axpyRowsAsm(dst, x, d []float64, in, dstride, n int)

// tanhAsm replaces xs[i] with math.Tanh(xs[i]), bit for bit, for
// i < len(xs)&^3; the remainder is the caller's.
//
//go:noescape
func tanhAsm(xs []float64)

// adamAsm runs adamUpdate's loop four lanes at a time for i < len(g)&^3,
// bit for bit; the remainder is the caller's, which must guarantee that
// p, m and v are at least as long as g.
//
//go:noescape
func adamAsm(p, g, m, v []float64, lr, b1, b2, eps, c1, c2 float64)

var useASM = cpuHasAVX2FMA()
