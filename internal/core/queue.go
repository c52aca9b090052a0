package core

import (
	"fmt"

	"albatross/internal/cluster"
	"albatross/internal/orca"
)

// jobQueueState is the shared-object state of one FIFO job queue.
type jobQueueState struct {
	jobs   []any
	closed bool
}

// popResult is what a GetJob operation returns.
type popResult struct {
	job    any
	ok     bool // a job was returned
	closed bool // the queue is closed and drained
}

// queueOps builds the shared-object operations for a job-queue state.
func pushOp(size int, job any) orca.Op {
	return orca.Op{
		Name: "AddJob", ArgBytes: size, ResBytes: 4,
		Apply: func(state any) any {
			q := state.(*jobQueueState)
			q.jobs = append(q.jobs, job)
			return nil
		},
	}
}

func popOp(resSize int) orca.Op {
	return orca.Op{
		Name: "GetJob", ArgBytes: 8, ResBytes: resSize,
		Apply: func(state any) any {
			q := state.(*jobQueueState)
			if len(q.jobs) == 0 {
				return popResult{closed: q.closed}
			}
			j := q.jobs[0]
			q.jobs = q.jobs[1:]
			return popResult{job: j, ok: true}
		},
	}
}

var closeOp = orca.Op{
	Name: "CloseQueue", ArgBytes: 4, ResBytes: 4,
	Apply: func(state any) any {
		state.(*jobQueueState).closed = true
		return nil
	},
}

// CentralQueue is the paper's original TSP work-distribution scheme
// (Section 4.2): a single FIFO job queue stored in a shared object on the
// master's machine. Every Pop by a worker in another cluster is an
// intercluster RPC — the wide-area bottleneck the optimization removes.
type CentralQueue struct {
	obj *orca.Object
}

// NewCentralQueue creates the queue object at the owner node.
func NewCentralQueue(sys *System, owner cluster.NodeID) *CentralQueue {
	return &CentralQueue{obj: sys.RTS.NewObject("central-queue", owner, &jobQueueState{})}
}

// Push appends a job (size = simulated job descriptor bytes).
func (q *CentralQueue) Push(w *Worker, size int, job any) {
	w.Invoke(q.obj, pushOp(size, job))
}

// Close marks the queue complete: workers seeing an empty closed queue stop.
func (q *CentralQueue) Close(w *Worker) { w.Invoke(q.obj, closeOp) }

// Pop removes the oldest job. ok is false with done=false when the queue is
// momentarily empty, and done=true when it is closed and drained.
func (q *CentralQueue) Pop(w *Worker, resSize int) (job any, ok, done bool) {
	r := w.Invoke(q.obj, popOp(resSize)).(popResult)
	return r.job, r.ok, r.closed
}

// ClusterQueues is the optimized TSP scheme: one job queue per cluster with
// the work divided statically over the clusters, trading load balance for a
// large reduction in intercluster communication (paper Section 4.2).
type ClusterQueues struct {
	objs []*orca.Object
	topo cluster.Topology
}

// NewClusterQueues creates one queue object per cluster, owned by that
// cluster's first node.
func NewClusterQueues(sys *System) *ClusterQueues {
	topo := sys.Topo
	cq := &ClusterQueues{topo: topo}
	for c := 0; c < topo.Clusters; c++ {
		cq.objs = append(cq.objs,
			sys.RTS.NewObject(fmt.Sprintf("cluster-queue-%d", c), topo.Node(c, 0), &jobQueueState{}))
	}
	return cq
}

// PushTo appends a job to cluster c's queue (the master's static division).
func (q *ClusterQueues) PushTo(w *Worker, c int, size int, job any) {
	w.Invoke(q.objs[c], pushOp(size, job))
}

// Close closes cluster c's queue only.
func (q *ClusterQueues) Close(w *Worker, c int) { w.Invoke(q.objs[c], closeOp) }

// Pop removes the oldest job from the caller's own cluster queue.
func (q *ClusterQueues) Pop(w *Worker, resSize int) (job any, ok, done bool) {
	r := w.Invoke(q.objs[w.Cluster()], popOp(resSize)).(popResult)
	return r.job, r.ok, r.closed
}
