//go:build race

package core

// raceEnabled reports that this binary was built with -race. The job path
// then poisons its DMA burst and register-frame scratch after every
// transaction, and the SM logic's DMA read frame once its data is copied
// out (see poison), so an interceptor that kept a borrowed frame
// instead of copying it reads 0xA5 garbage; and tests skip bounds on scaled
// wall-clock measurements (the constant-size enclave crypto), since the
// detector slows crypto by an order of magnitude.
const raceEnabled = true
