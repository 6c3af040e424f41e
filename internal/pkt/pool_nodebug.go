//go:build !pooldebug

package pkt

// PoolDebug reports whether use-after-put poisoning is compiled in.
const PoolDebug = false

func poisonFrame(*Frame) {}

func poisonSKB(*SKB) {}

func poisonWire([]byte) {}

func (*WireBufs) debugPut([]byte) {}

func (*WireBufs) debugGet([]byte) {}
