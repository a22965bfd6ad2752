package exec

// wireMsg is the master↔worker message vocabulary, deliberately tiny
// — the protocol stands in for the paper's MPI master/worker
// messages, not for a general RPC layer. Each message travels as one
// binary frame (codec.go); the type byte selects the fields that
// follow, in this order:
//
//	worker → master  hello      slots version
//	master → worker  welcome    worker timescale heartbeat_ms version
//	master → worker  task       task_id index activity vm vm_type attempt duration args…
//	worker → master  heartbeat  running
//	worker → master  result     task_id index attempt duration error
//	master → worker  shutdown
type wireMsg struct {
	Type string
	// hello
	Slots int
	// hello/welcome: the sender's wire protocol version.
	Version int
	// welcome
	Worker      int
	TimeScale   float64
	HeartbeatMs int
	// task
	Task *TaskSpec
	// result
	TaskID string
	// Index echoes the task's workflow index so the master resolves a
	// result without hashing its ID.
	Index    int
	Attempt  int
	Duration float64
	Error    string
	// heartbeat
	Running int
}

const (
	msgHello     = "hello"
	msgWelcome   = "welcome"
	msgTask      = "task"
	msgResult    = "result"
	msgHeartbeat = "heartbeat"
	msgShutdown  = "shutdown"
)
