package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
)

const spikeNamespace = "spike"

// spikeDeadline is the simulated time by which every job of a spike must
// have been admitted, run, deleted and had its VNI released.
const spikeDeadline = 30 * time.Minute

// jobRecord is one spike job as the shared Job informer saw it.
type jobRecord struct {
	created, started, completed sim.Time
	hostDone                    time.Time // host time the job's deletion was observed
	done, deleted               bool
}

// runAdmission drives admission-spike: every repetition builds the same
// fleet, submits the same spike of single-pod vni:"true" echo jobs at one
// simulated instant, and runs until each job was admitted, ran, was
// deleted and had its VNI released. Repetitions are identical, so each
// must reproduce the first one's fingerprint.
func runAdmission(p *phase) error {
	rng := rand.New(rand.NewSource(p.seed))
	stackSeed := 1 + rng.Int63n(1<<31)
	n := p.size.spikeJobs
	ann := map[string]string{vniapi.Annotation: vniapi.AnnotationValueTrue}
	var ref string
	for rep := 0; rep == 0 || p.more(); rep++ {
		// Set-up: the fleet and the spike's jobs, built setupReps times
		// so setup_s has enough samples; the last build is used.
		var st *stack.Stack
		var jobs []*k8s.Job
		var recs map[string]*jobRecord
		for r := 0; r < p.size.setupReps; r++ {
			p.timeSetup(func() {
				t0 := time.Now()
				opts := stack.DefaultOptions()
				opts.Seed = stackSeed
				opts.Nodes = p.size.spikeNodes
				st = stack.New(opts)
				p.span("stack.new_ms", time.Since(t0))
				st.Cluster.CreateNamespace(spikeNamespace)
				jobs = make([]*k8s.Job, n)
				recs = make(map[string]*jobRecord, n)
				for i := range jobs {
					name := fmt.Sprintf("echo-%05d", i)
					jobs[i] = k8s.EchoJob(spikeNamespace, name, ann)
					recs[name] = &jobRecord{}
				}
			})
		}
		deleted := 0
		// Only completed jobs' events reach the handler, so the benchmark
		// costs one object copy per job transition it records.
		completed := func(o k8s.Object) bool { return o.(*k8s.Job).Status.Completed }
		st.Cluster.Client.Watch(k8s.KindJob, k8s.WatchOptions{Namespace: spikeNamespace, Selector: completed}, func(ev k8s.Event) {
			job := ev.Object.(*k8s.Job)
			r := recs[job.Meta.Name]
			if r == nil {
				return
			}
			if !r.done && job.Status.Completed {
				r.done = true
				r.created, r.started, r.completed = job.Meta.Created, job.Status.StartedAt, job.Status.CompletedAt
			}
			if ev.Type == k8s.EventDeleted && !r.deleted {
				r.deleted = true
				r.hostDone = time.Now()
				deleted++
				p.rt.sampleHeap()
			}
		})

		// Timed: the spike, from submission to the last release.
		before := snapshot(st)
		p.beginTimed()
		hostDue, due := time.Now(), st.Eng.Now()
		for _, job := range jobs {
			st.Cluster.SubmitJob(job)
		}
		p.span("k8s.submit_ms", time.Since(hostDue))
		tRun := time.Now()
		st.Eng.RunUntilDone(func() bool { return deleted == n }, due.Add(spikeDeadline))
		// Drain the teardown the last deletions started.
		for steps := 0; steps < maxDrainSteps && st.Eng.Step(); steps++ {
		}
		p.span("sim.run_s", time.Since(tRun))
		p.chunks = append(p.chunks, float64(n)/time.Since(hostDue).Seconds())
		p.simAdv += st.Eng.Now().Sub(due)
		p.endTimed()

		// Checks and accounting, outside the timed section.
		p.attempted += n
		acquired, released := auditTimes(st.DB.Audit())
		var spikeSim, hostMs []float64
		missed := 0
		for i := range jobs {
			name := jobs[i].Meta.Name
			r := recs[name]
			acq, okA := acquired[name]
			rel, okR := released[name]
			if !r.deleted || !r.done || !okA || !okR {
				missed++
				continue
			}
			hostMs = append(hostMs, ms(r.hostDone.Sub(hostDue)))
			if rep == 0 {
				lat := r.completed.Sub(due)
				spikeSim = append(spikeSim, ms(lat))
				p.stages["admission.vni_ms"] = append(p.stages["admission.vni_ms"], ms(acq.Sub(r.created)))
				p.stages["admission.start_ms"] = append(p.stages["admission.start_ms"], ms(r.started.Sub(acq)))
				p.stages["admission.run_ms"] = append(p.stages["admission.run_ms"], ms(r.completed.Sub(r.started)))
				p.stages["admission.release_ms"] = append(p.stages["admission.release_ms"], ms(rel.Sub(r.completed)))
			}
		}
		// Each spike is its own open-loop experiment, so its latencies
		// give one p50 and p99; pooling spikes would let the slowest
		// one set the p99.
		p.batchP50 = append(p.batchP50, quantile(hostMs, 0.50))
		p.batchP99 = append(p.batchP99, quantile(hostMs, 0.99))
		after := snapshot(st)
		sp := spikeFingerprint(st, recs, jobs, due, before, after)
		switch {
		case missed > 0:
			p.fail(missed, "admission-spike: %d of %d jobs missed the %s deadline", missed, n, spikeDeadline)
		case st.Eng.Pending() > 0:
			p.fail(n, "admission-spike: %d events still queued after the drain", st.Eng.Pending())
		case st.DB.Stats().Allocated > 0:
			p.fail(n, "admission-spike: %d VNIs still allocated after the drain", st.DB.Stats().Allocated)
		case after["cni.adds_failed"] > before["cni.adds_failed"]:
			p.fail(n, "admission-spike: %v CNI ADDs failed", after["cni.adds_failed"]-before["cni.adds_failed"])
		case rep > 0 && sp != ref:
			// Every repetition is the same spike.
			p.fail(n, "admission-spike: repetition %d is not deterministic", rep)
		default:
			if err := st.Cluster.Client.VerifyCaches(); err != nil {
				p.fail(n, "admission-spike: informer caches diverged: %v", err)
			}
		}
		if rep == 0 {
			ref = sp
			p.simOpMs = spikeSim
			p.counts.add(before, after)
			p.counts["ops"] = float64(n)
			dbs := st.DB.Stats()
			p.counts["vnidb.rows_end"] = float64(dbs.Allocated + dbs.Quarantined)
			p.fp.f("%s\n", sp)
		}
	}
	return nil
}

// auditTimes returns each spike job's VNI acquire and release times from
// the vnidb audit log.
func auditTimes(audit []vnidb.AuditEntry) (acquired, released map[string]sim.Time) {
	acquired, released = map[string]sim.Time{}, map[string]sim.Time{}
	for _, e := range audit {
		// Owners of job VNIs read job/<namespace>/<name>/<uid>.
		parts := strings.Split(e.Owner, "/")
		if len(parts) != 4 || parts[0] != "job" || parts[1] != spikeNamespace {
			continue
		}
		switch e.Op {
		case vnidb.OpAcquire:
			acquired[parts[2]] = e.At
		case vnidb.OpRelease:
			released[parts[2]] = e.At
		}
	}
	return acquired, released
}

// spikeFingerprint digests one spike's simulated outcome: every job's
// stage times, the counters and the VNI audit log.
func spikeFingerprint(st *stack.Stack, recs map[string]*jobRecord, jobs []*k8s.Job, due sim.Time, before, after counters) string {
	d := newDigest()
	d.f("due %d end %d\n", due, st.Eng.Now())
	for _, job := range jobs {
		r := recs[job.Meta.Name]
		d.f("%s %d %d %d %v\n", job.Meta.Name, r.created, r.started, r.completed, r.deleted)
	}
	hashCounters(d, before, after)
	hashAudit(d, st)
	return d.hex()
}
