package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/profile"
	"greensprint/internal/server"
	"greensprint/internal/solar"
	"greensprint/internal/trace"
	"greensprint/internal/workload"
)

// dayEpochs is one simulated day of 5-minute control epochs.
const dayEpochs = 288

// inputStart is the first instant of every generated trace.
var inputStart = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)

// inputs is everything a workload feeds the program, derived from the
// benchmark seed alone: SPECjbb on the RE-Batt rack (Tables I and II),
// a solar trace whose daily sky regimes are drawn from the seed, the
// Figure 1 diurnal load tiled over the days with a ±5% per-minute
// jitter, and a chaos seed.
type inputs struct {
	days      int
	p         workload.Profile
	green     cluster.GreenConfig
	tab       *profile.Table
	supply    *trace.Trace // rack-level green AC power (W), 1-minute samples
	offered   *trace.Trace // per-server offered rate (req/s), 1-minute samples
	chaosSeed int64
}

func makeInputs(seed int64, days int) (*inputs, error) {
	p := workload.SPECjbb()
	green := cluster.REBatt()
	rng := rand.New(rand.NewSource(seed))

	scfg := solar.DefaultGeneratorConfig()
	scfg.Start = inputStart
	scfg.Days = days
	scfg.Array = green.Array()
	scfg.Skies = skies(rng, days)
	scfg.Seed = rng.Int63()
	supply, err := solar.Generate(scfg)
	if err != nil {
		return nil, err
	}

	// 1.0 on the normalized pattern is a fully used Normal-mode server,
	// as in experiments.DayInTheLife, so the four daily spikes demand
	// sprinting.
	load := workload.DiurnalPattern(inputStart, time.Minute).Repeat(days)
	for i := range load.Samples {
		load.Samples[i] *= 1 + 0.05*(2*rng.Float64()-1)
	}
	tab, err := profile.Build(p, profile.DefaultLevels)
	if err != nil {
		return nil, err
	}
	return &inputs{
		days:      days,
		p:         p,
		green:     green,
		tab:       tab,
		supply:    supply,
		offered:   load.Scale(p.MaxGoodput(server.Normal())),
		chaosSeed: rng.Int63(),
	}, nil
}

// skies fixes how many days of each sky regime the run has, in the
// generator's own proportions (45% clear and 15% overcast, rounded
// down, the rest partly cloudy), and lets the seed choose their order.
// Drawing each day independently would let the seed change how much
// sprinting a run does, and with it the work a pass measures.
func skies(rng *rand.Rand, days int) []solar.Sky {
	s := make([]solar.Sky, days)
	clear, overcast := days*45/100, days*15/100
	for i := range s {
		switch {
		case i < clear:
			s[i] = solar.Clear
		case i < clear+overcast:
			s[i] = solar.Overcast
		default:
			s[i] = solar.PartlyCloudy
		}
	}
	rng.Shuffle(days, func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// lightChaos resolves the "light" chaos profile over the inputs' run.
func (in *inputs) lightChaos() (*chaos.Schedule, error) {
	prof, err := chaos.ParseProfile("light")
	if err != nil {
		return nil, err
	}
	bank, err := in.green.NewBank()
	if err != nil {
		return nil, err
	}
	sched, err := prof.Resolve(in.chaosSeed, in.days*dayEpochs, in.green.GreenServers, bank.Size())
	if err != nil {
		return nil, err
	}
	sched.Source = "light"
	return sched, nil
}

// streamHash digests a byte stream and counts its length; it is the
// io.Writer behind every JSONL sink. The zero value only counts, like
// io.Discard with a byte count, so timed passes do no hashing of their
// own.
type streamHash struct {
	h hash.Hash
	n int64
}

func newStreamHash() *streamHash { return &streamHash{h: sha256.New()} }

func (s *streamHash) Write(b []byte) (int, error) {
	s.n += int64(len(b))
	if s.h == nil {
		return len(b), nil
	}
	return s.h.Write(b)
}

// sum is the stream's digest, or only its length if it was not hashed.
func (s *streamHash) sum() string {
	if s.h == nil {
		return fmt.Sprintf("bytes:%d", s.n)
	}
	return "sha256:" + hex.EncodeToString(s.h.Sum(nil))
}
