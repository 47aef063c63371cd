package main

import (
	"fmt"

	"llbp/internal/workload"
)

// Sub-seed streams: every input the benchmark generates draws from its
// own stream derived from --seed, so one workload's inputs do not shift
// when another's sizes change.
const (
	streamReplay uint64 = iota + 1
	streamMatrix
	streamSession
	streamJobs
)

// splitmix64 is the seed mixer (the same finalizer the repo's chaos
// scenarios use), so neighbouring seeds give unrelated inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed, stream, i uint64) uint64 {
	return splitmix64(splitmix64(seed^stream<<56) + i)
}

// reseeded returns a workload shaped like the named catalog entry (same
// Params apart from the seed) whose program and stream come from seed.
// The name carries the seed so trace-cache and cell keys never collide
// with the catalog workload or another seed.
func reseeded(catalogName string, seed uint64) (*workload.Source, error) {
	base, err := workload.ByName(catalogName)
	if err != nil {
		return nil, err
	}
	p := base.Params()
	p.Seed = seed
	p.Name = fmt.Sprintf("%s.s%x", catalogName, seed&0xffffffff)
	return workload.New(p)
}
