package k8s

// SetCommitObserver installs fn to see every store-slot change (nil
// removes it); see commitObserver. Test builds only.
func SetCommitObserver(fn func(prev, next Object)) { commitObserver = fn }
