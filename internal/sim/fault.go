package sim

// FaultHook is the kernel-level fault-injection seam. A hook installed
// with SetFaultHook is consulted by the simulated cloud services at their
// failure points: labeled pipeline stages ask Crash whether the function
// should die there, queue triggers ask Redeliver whether a successfully
// processed batch should be delivered a second time (at-least-once
// semantics), queues ask DeliveryDelay for extra in-flight latency, and
// the storage latency model asks OpDelay for per-operation jitter.
//
// The hook is nil by default and every call site guards on that, so a
// deployment without a hook runs byte-identical to one built before this
// seam existed — in particular the golden virtual-time trace does not
// move, and no random numbers are drawn. Implementations live outside the
// simulator (package chaos); they must draw randomness from their own
// seeded source, never from the kernel's, so installing a hook perturbs
// timing only through the faults it actually injects. The one exception is
// the crash hook of package fkclient's tests, which draws from the
// kernel's source at the leader-queue push and the transaction stages on
// purpose: its crash tests replay, draw for draw, the histories recorded
// when crash injection was a Config probability drawn at those points.
type FaultHook interface {
	// Crash reports whether the currently running function should fail at
	// the labeled stage while processing (session, seq). The call site
	// returns an error to its trigger, which retries the batch — so an
	// implementation must bound how often it fires for one key or the
	// retry budget drains and requests are lost.
	Crash(stage, session string, seq int64) bool

	// Redeliver reports whether the batch just processed successfully by
	// the named function should be delivered once more — the duplicate
	// delivery every at-least-once queue permits.
	Redeliver(fn string) bool

	// DeliveryDelay returns extra latency to add to one batch delivery
	// from the named queue (0 for none).
	DeliveryDelay(queue string) Time

	// OpDelay returns extra latency to add to one storage/service
	// operation (0 for none).
	OpDelay() Time
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
func (k *Kernel) SetFaultHook(h FaultHook) { k.fault = h }

// Fault returns the installed fault-injection hook, nil when none is set.
func (k *Kernel) Fault() FaultHook { return k.fault }
