package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"unsafe"
)

// hostMeta describes the machine a result set was measured on.
type hostMeta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	// HWCounters reports whether perf_event_open grants a hardware cycle
	// counter; HWCountersErr is the errno when it does not.
	HWCounters    bool   `json:"hw_counters"`
	HWCountersErr string `json:"hw_counters_err,omitempty"`
}

func hostInfo() hostMeta {
	h := hostMeta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if err := probeCycleCounter(); err != nil {
		h.HWCountersErr = err.Error()
	} else {
		h.HWCounters = true
	}
	return h
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// perfEventAttr is struct perf_event_attr up to PERF_ATTR_SIZE_VER5.
type perfEventAttr struct {
	Type, Size                      uint32
	Config, SamplePeriod, SampleTyp uint64
	ReadFormat, Flags               uint64
	WakeupEvents, BPType            uint32
	Config1, Config2, BranchSample  uint64
	SampleRegsUser                  uint64
	SampleStackUser                 uint32
	ClockID                         int32
	SampleRegsIntr                  uint64
	AuxWatermark                    uint32
	SampleMaxStack, _               uint16
}

// probeCycleCounter opens (and closes) a disabled user-space CPU-cycle
// counter for this process, the way a hardware-counter reading would
// start.
func probeCycleCounter() error {
	const (
		perfTypeHardware = 0
		perfCountCycles  = 0
		flagDisabled     = 1 << 0
		flagExclKernel   = 1 << 5
		flagExclHV       = 1 << 6
	)
	attr := perfEventAttr{Type: perfTypeHardware, Config: perfCountCycles,
		Flags: flagDisabled | flagExclKernel | flagExclHV}
	attr.Size = uint32(unsafe.Sizeof(attr))
	fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN,
		uintptr(unsafe.Pointer(&attr)), 0, ^uintptr(0), ^uintptr(0), 0, 0)
	if errno != 0 {
		return errno
	}
	return syscall.Close(int(fd))
}
