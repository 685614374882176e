package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The host this benchmark was built on is a virtual machine that shares
// its CPUs with other machines' load. Its speed drifts by up to ±30%
// over seconds to minutes, in two ways: the hypervisor takes its CPUs
// away for a while (steal time), and while they run, other load on the
// same cores and memory slows them. Every measured iteration corrects
// for both. The time stolen during the iteration from the CPUs it ran
// on is taken off its wall time; what remains is scaled by
// probeRef ÷ the median time of a probe, a fixed kernel timed every
// probePeriod on a goroutine of its own. The result is host seconds on
// an unshared host where the kernel takes probeRef. The raw times,
// steal times and speed factors are in the report line.
//
// That the probe's time does not depend on the simulator is an
// assumption. The probe shares the CPUs with the workload, so a change
// that loads the host's memory system or the runtime could slow it
// and hide part of its own cost. Two things keep the coupling small:
// the kernel re-reads its table before it is timed, so whatever the
// workload left in the core's caches does not count, and the median
// over many samples ignores the few that a GC pause lands in. README.md
// gives the measurements that check the assumption. The steal time
// needs no such assumption: the hypervisor accounts it, and the
// workload only decides which CPUs it is weighted by.
const (
	probePeriod = 100 * time.Millisecond
	probeIters  = 200_000
	// probeRef is the kernel's time on the 2-CPU Intel Xeon host the
	// benchmark was built on.
	probeRef = 1.5e-3
)

// probeTable is the kernel's working set: 256 KB, so the probe stays
// in its own core's caches and barely disturbs the measured work.
var probeTable = func() []uint64 {
	t := make([]uint64, 1<<15)
	for i := range t {
		t[i] = uint64(i) * 2654435761
	}
	return t
}()

// probeKernel runs integer arithmetic, data-dependent branches and
// random reads and writes over probeTable, and returns its time. An
// untimed sweep first brings the table back into the core's caches.
func probeKernel() float64 {
	var w uint64
	for _, v := range probeTable {
		w += v
	}
	probeTable[1] += w & 1
	t0 := time.Now()
	x := uint64(88172645463325252)
	var s uint64
	mask := uint64(len(probeTable) - 1)
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		if x&3 == 0 {
			probeTable[j] += x
		}
		s += probeTable[(j*31)&mask]
	}
	probeTable[0] += s
	return time.Since(t0).Seconds()
}

// prober times probeKernel once at start and then every probePeriod
// until finish. At the same instants it samples the memory the Go
// runtime holds from the operating system, keeping the peak.
type prober struct {
	// samples and held are written by the probe goroutine until done
	// closes.
	samples []float64
	held    []float64
	cpu0    []cpuTimes
	stop    chan struct{}
	done    chan struct{}
}

func startProbe() *prober {
	p := &prober{stop: make(chan struct{}), done: make(chan struct{}), cpu0: readCPUTimes()}
	p.sample()
	go func() {
		defer close(p.done)
		t := time.NewTicker(probePeriod)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func (p *prober) sample() {
	p.samples = append(p.samples, probeKernel())
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	p.held = append(p.held, float64(s[0].Value.Uint64()-s[1].Value.Uint64()))
}

// phase is what the probe saw during one measured phase.
type phase struct {
	// speed is probeRef ÷ the median probe time.
	speed float64
	// steal is the wall time the hypervisor took from the phase's
	// work (see stolen).
	steal float64
	// held is the memory held in bytes: its 95th percentile over the
	// phase's samples, which a single sample caught at the top of a GC
	// cycle does not move.
	held float64
}

// seconds is the phase's wall time w as the benchmark reports it: the
// stolen time taken off, at the reference speed.
func (p phase) seconds(w float64) float64 { return (w - p.steal) * p.speed }

// finish stops the probe and waits for its goroutine.
func (p *prober) finish() phase {
	close(p.stop)
	<-p.done
	return phase{
		speed: probeRef / median(p.samples),
		steal: stolen(p.cpu0, readCPUTimes()),
		held:  quantile(p.held, 0.95),
	}
}

// userHZ is the unit of /proc/stat's times: 100 per second on Linux.
const userHZ = 100

// cpuTimes is one CPU's busy and stolen time since boot, in seconds.
type cpuTimes struct{ busy, steal float64 }

// readCPUTimes reads every CPU's line of /proc/stat. It returns nil
// where /proc/stat is missing or has no steal column, which leaves wall
// times uncorrected.
func readCPUTimes() []cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	var cpus []cpuTimes
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// cpuN user nice system idle iowait irq softirq steal ...
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || len(fields[0]) < 4 || !strings.HasPrefix(fields[0], "cpu") {
			continue
		}
		var v [8]float64
		for i := range v {
			v[i], _ = strconv.ParseFloat(fields[i+1], 64)
			v[i] /= userHZ
		}
		cpus = append(cpus, cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]})
	}
	return cpus
}

// stolen is the wall time the hypervisor took from the work that ran
// between two readings: each CPU's steal, weighted by the share of the
// busy time that CPU ran. One thread on one CPU loses that CPU's steal;
// work spread evenly over the CPUs loses their mean steal.
func stolen(before, after []cpuTimes) float64 {
	if len(before) != len(after) {
		return 0
	}
	var busy, steal float64
	for i := range after {
		b := after[i].busy - before[i].busy
		busy += b
		steal += b * (after[i].steal - before[i].steal)
	}
	return ratio(steal, busy)
}

// cpuSeconds is the CPU time the process has used, all threads, user
// and system. The kernel does not count steal time in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}
